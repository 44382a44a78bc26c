"""Eigendecomposition contract, the secular solver, and the scan-statistic KKT solve."""
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphscan import (
    build_graph,
    center,
    chi_max,
    eig_sym,
    gen_bbt,
    gen_kron_multiscale,
    gen_lattice,
    graph_spectrum,
    laplacian,
    scale_weights,
    sss,
    two_triangles,
    write_spectrum_csv,
)
from graphscan import spectral
from graphscan.spectral import DenseSpectrum, _fix_signs, _scaled_sums, _sss_values
from helpers import (
    FAMILIES,
    dense_basis,
    draw_rho,
    fix_signs_loop,
    kkt_solve_loop,
    random_connected_graph,
    sss_certificate,
)


def p2_spectrum():
    return graph_spectrum(build_graph(2, [(0, 1, 1.0)]))


class TestFixSigns:
    def test_matches_column_loop_bit_for_bit(self):
        rng = np.random.default_rng(71)
        graphs = [gen_lattice(48, periodic=True)] + [random_connected_graph(rng, max_n=40) for _ in range(20)]
        for g in graphs:
            vectors = np.linalg.eigh(laplacian(g))[1]
            assert _fix_signs(vectors).tobytes() == fix_signs_loop(vectors).tobytes()

    def test_signed_zeros_and_negligible_entries(self):
        # columns: all zeros, a negligible negative lead, a negative lead
        vectors = np.array([[-0.0, -1e-20, -0.0], [0.0, 2.0, -3.0], [-0.0, -1.0, 0.0]])
        fixed = _fix_signs(vectors)
        assert fixed.tobytes() == fix_signs_loop(vectors).tobytes()
        assert np.signbit(fixed).tolist() == [[True, True, False], [False, False, False], [True, True, True]]


class TestEigSym:
    def test_diagonal(self):
        spec = eig_sym(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0])

    def test_path_two(self):
        spec = p2_spectrum()
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)
        ones = np.full(2, 1 / np.sqrt(2))
        assert min(
            np.abs(spec.eigenvectors[:, 0] - ones).max(),
            np.abs(spec.eigenvectors[:, 0] + ones).max(),
        ) < 1e-12

    def test_triangle(self):
        lap = 3 * np.eye(3) - np.ones((3, 3))
        np.testing.assert_allclose(eig_sym(lap).eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_spectrum_invariants_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_connected_graph(rng)
            lap = laplacian(g)
            spec = graph_spectrum(g)
            norm = np.abs(spec.eigenvalues).max()
            residual = lap @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
            assert np.abs(residual).max() <= 1e-8 * (1 + norm)
            gram = spec.eigenvectors.T @ spec.eigenvectors
            assert np.abs(gram - np.eye(g.n)).max() <= 1e-10
            assert spec.eigenvalues[0] <= 1e-10
            assert spec.eigenvalues[1] > 0.0
            ones = np.full(g.n, 1 / np.sqrt(g.n))
            assert min(
                np.abs(spec.eigenvectors[:, 0] - ones).max(),
                np.abs(spec.eigenvectors[:, 0] + ones).max(),
            ) <= 1e-8

    def test_deterministic(self):
        m = np.random.default_rng(0).standard_normal((6, 6))
        m = m + m.T
        a, b = eig_sym(m), eig_sym(m)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    @pytest.mark.parametrize("m", [np.ones((2, 3)), np.ones(3)], ids=["wide", "vector"])
    def test_rejects_non_square(self, m):
        with pytest.raises(ValueError, match="square matrix"):
            eig_sym(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="NaN or infinite"):
            eig_sym(np.array([[1.0, bad], [bad, 1.0]]))


class TestCenter:
    @pytest.mark.parametrize("y", [np.ones((2, 2)), np.array([])], ids=["matrix", "empty"])
    def test_rejects_non_vectors(self, y):
        if y.ndim == 2:
            message = "expected an observation vector, got shape (2, 2)"
        else:
            message = "observation has length 0, expected at least 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            center(y)

    def test_already_centered(self):
        np.testing.assert_array_equal(center(np.array([1.0, -1.0])), [1.0, -1.0])

    def test_constant_maps_to_zero(self):
        np.testing.assert_allclose(center(np.full(5, 3.7)), 0.0, atol=1e-14)

    def test_subtracts_mean(self):
        np.testing.assert_allclose(center(np.array([2.0, 0.0, 1.0])), [1.0, -1.0, 0.0])

    def test_output_sums_to_zero(self):
        y = np.random.default_rng(1).uniform(-5, 5, 100)
        assert abs(center(y).sum()) <= 1e-10 * y.size

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="NaN or infinite"):
            center(np.array([1.0, bad, 0.0]))

    @pytest.mark.parametrize("level", [0.1, 1e308, -1.7e308, 2.0**-1074])
    def test_constant_is_exactly_zero(self, level):
        assert center(np.full(15, level)).tobytes() == np.zeros(15).tobytes()

    def test_other_rows_keep_the_bits_of_the_mean(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 15, 128, 255, 2304):
            y = rng.uniform(-5.0, 5.0) + rng.standard_normal(n)
            y[-1] = y[0]  # the cheap test for a constant row passes, the full one not
            assert center(y).tobytes() == (y - y.mean()).tobytes()

    def test_rejects_an_overflowing_row(self):
        with pytest.raises(ValueError, match="overflows"):
            center(np.array([1.7e308, -1.7e308, 1.7e308]))


class TestChiMax:
    def test_nu_zero_is_rank_one(self):
        c = np.array([1.0, 2.0])
        assert chi_max(c, np.array([1.0, 2.0]), 0.0) == pytest.approx(5.0)

    def test_zero_coefficients_is_diagonal(self):
        assert chi_max(np.zeros(3), np.array([1.0, 2.0, 5.0]), 3.0) == pytest.approx(-3.0)

    def test_scalar_case(self):
        assert chi_max(np.array([1.5]), np.array([2.0]), 0.25) == pytest.approx(1.5**2 - 0.25 * 2.0)

    def test_rejects_nonpositive_lambdas(self):
        with pytest.raises(ValueError, match="positive"):
            chi_max(np.array([1.0]), np.array([0.0]), 1.0)

    def test_rejects_unsorted_lambdas(self):
        with pytest.raises(ValueError, match="ascending"):
            chi_max(np.array([1.0, 1.0]), np.array([2.0, 1.0]), 1.0)

    @pytest.mark.parametrize(
        "c, lambdas, match",
        [
            ([1.0, 2.0], [1.0], "equal length"),
            ([[1.0]], [[1.0]], "equal length"),
            ([], [], "at least one eigenvalue"),
        ],
        ids=["ragged", "matrix", "empty"],
    )
    def test_rejects_bad_shapes(self, c, lambdas, match):
        with pytest.raises(ValueError, match=match):
            chi_max(np.array(c), np.array(lambdas), 1.0)

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(11)
        for i in range(200):
            m = int(rng.integers(1, 14))
            lam = np.sort(rng.uniform(0.01, 5.0, m))
            c = rng.standard_normal(m)
            if i % 5 == 0:
                c[rng.integers(0, m)] = 0.0  # exercise deflation
            nu = float(rng.uniform(0.0, 10.0))
            dense = np.linalg.eigvalsh(np.outer(c, c) - nu * np.diag(lam))[-1]
            assert chi_max(c, lam, nu) == pytest.approx(dense, rel=1e-9, abs=1e-9)


class TestSss:
    def test_p2_ball_active(self):
        # 1-D reduced space: max t^2 * 2 over t^2 <= 1, 2 t^2 <= rho, rho = 2 = lambda_n
        result = sss(p2_spectrum(), np.array([1.0, -1.0]), 2.0)
        assert result.value == pytest.approx(2.0, abs=1e-8)
        assert (result.case, result.nu_star, result.iterations) == ("a", 0.0, 0)

    def test_p2_ellipsoid_active(self):
        result = sss(p2_spectrum(), np.array([1.0, -1.0]), 1.0)
        assert result.value == pytest.approx(1.0, abs=1e-8)
        # c = +-sqrt(2), lambda_2 = 2: nu* = c' diag(lambdas)^-1 c = 1
        assert result.case == "b"
        assert result.nu_star == pytest.approx(1.0, rel=1e-12)
        assert result.iterations == 0

    def test_both_constraints_active(self):
        # path 0-1-2: lambdas (1, 3); with c = (1, 1) the ball point has
        # z'Lz = 2 and the ellipsoid point has ||z||^2 = 5 rho / 6, so
        # rho = 1.5 activates both constraints
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        spec = graph_spectrum(g)
        y = spec.eigenvectors[:, 1:] @ np.array([1.0, 1.0])
        result = sss(spec, y, 1.5)
        assert result.case == "c"
        assert result.iterations > 0
        assert abs(result.gap) <= 1e-12 * result.value
        feasible, primal, dual = sss_certificate(g, y, 1.5, result)
        assert feasible
        assert primal - 1e-12 <= result.value <= dual + 1e-12

    def test_constant_observation_is_zero(self):
        result = sss(p2_spectrum(), np.array([4.0, 4.0]), 1.0)
        assert result.value == 0.0
        assert result.nu_star == 0.0
        assert (result.case, result.iterations, result.gap) == ("a", 0, 0.0)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError, match="rho"):
            sss(p2_spectrum(), np.array([1.0, -1.0]), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="rho"):
            sss(p2_spectrum(), np.array([1.0, -1.0]), bad)
        with pytest.raises(ValueError, match="NaN or infinite"):
            sss(p2_spectrum(), np.array([1.0, bad]), 1.0)

    def test_rejects_disconnected_spectrum(self):
        g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        spec = eig_sym(laplacian(g))
        with pytest.raises(ValueError, match="connected"):
            sss(spec, np.ones(4), 1.0)

    @pytest.mark.parametrize("shape", [(3,), (1,), (2, 3), (1, 2, 2)])
    def test_rejects_wrong_observation_shape(self, shape):
        if len(shape) == 1:
            message = f"observation has length {shape[0]}, expected 2"
        else:
            message = f"expected an observation vector, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sss(p2_spectrum(), np.ones(shape), 1.0)

    def test_witness_feasible_and_attaining(self):
        rng = np.random.default_rng(17)
        cases = set()
        for _ in range(50):
            g = random_connected_graph(rng)
            spec = graph_spectrum(g)
            y = rng.standard_normal(g.n)
            rho = draw_rho(rng, spec.eigenvalues)
            result = sss(spec, y, rho)
            x = result.witness
            assert np.linalg.norm(x) <= 1 + 1e-9
            assert abs(x.sum()) <= 1e-9 * np.sqrt(g.n)
            assert x @ laplacian(g) @ x <= rho * (1 + 1e-6)
            attained = float(x @ center(y)) ** 2
            assert attained <= result.value + 1e-6 * (1 + result.value)
            nz = np.nonzero(np.abs(x) > 1e-12)[0]
            if nz.size:
                assert x[nz[0]] > 0  # sign convention
            assert abs(result.gap) <= 1e-12 * result.value
            cases.add(result.case)
        assert cases == {"a", "b", "c"}

    @pytest.mark.parametrize("which", ["random", "eigenvector"])
    def test_degenerate_torus_spectrum(self, which):
        # the 6x6 torus has repeated eigenvalues; an eigenvector observation
        # leaves all but one coefficient deflated
        g = gen_lattice(6, periodic=True)
        spec = graph_spectrum(g)
        lam2, lam_n = spec.eigenvalues[1], spec.eigenvalues[-1]
        if which == "random":
            y = np.random.default_rng(37).standard_normal(g.n)
        else:
            y = dense_basis(spec)[:, 7]
        energy = float(center(y) @ center(y))
        for rho, case in ((0.5 * lam2, "b"), (2.0, None), (lam_n, "a"), (2.0 * lam_n, "a")):
            result = sss(spec, y, rho)
            if case is not None:
                assert result.case == case
            if result.case == "a":
                assert result.nu_star == 0.0
                assert result.value == pytest.approx(energy, rel=1e-12)
            assert abs(result.gap) <= 1e-12 * result.value
            feasible, primal, dual = sss_certificate(g, y, rho, result)
            assert feasible
            assert result.value >= primal - 1e-8
            assert dual >= result.value - 1e-8
            assert dual - primal <= 1e-6 * (1 + result.value)

    @pytest.mark.parametrize("scale", [2.0, 10.0])
    def test_scale_equivariance(self, scale):
        rng = np.random.default_rng(23)
        for _ in range(20):
            g = random_connected_graph(rng)
            spec = graph_spectrum(g)
            y = rng.standard_normal(g.n)
            rho = draw_rho(rng, spec.eigenvalues)
            base = sss(spec, y, rho).value
            scaled = sss(spec, scale * y, rho).value
            assert scaled == pytest.approx(scale**2 * base, rel=1e-9, abs=1e-12)

    def test_dual_objective_midpoint_convexity(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            g = random_connected_graph(rng)
            spec = graph_spectrum(g)
            y = rng.standard_normal(g.n)
            rho = draw_rho(rng, spec.eigenvalues)
            (c,), _, _ = _scaled_sums(spec, y[None])
            lambdas = spec.eigenvalues[1:]
            grid = np.linspace(0.0, float(c @ c) / rho, 100)
            # the clamp at zero is the constant vector's direction, where
            # y~ y~' - nu L has eigenvalue 0
            f = np.array([max(0.0, chi_max(c, lambdas, nu)) + nu * rho for nu in grid])
            chord_minus_mid = 0.5 * (f[:-2] + f[2:]) - f[1:-1]
            tol = 1e-9 * (1.0 + np.abs(f).max())
            assert chord_minus_mid.min() >= -tol


class TestClosedFormCertificate:
    """The dual objective at nu*, in closed form, against a secular solve of it at the same multiplier."""

    @staticmethod
    def rows_and_levels(spec, rng, scale, u):
        """Two noise rows and a constant one, rho putting row 0 in each case, and whether row 0 has a case "c"."""
        y = scale * rng.standard_normal((3, spec.n))
        y[2] = scale
        lambdas = spec.eigenvalues[1:]
        c = spec.project(y[0] - y[0].mean())
        p = c * c / float(c @ c)
        # the case-"b" and case-"a" limits of row 0, strictly between which it is in case "c"
        lo, hi = float((p / lambdas).sum() / (p / lambdas**2).sum()), float(p @ lambdas)
        levels = {"a": 2.0 * lambdas[-1], "b": 0.5 * lambdas[0], "c": lo ** (1.0 - u) * hi**u}
        return y, levels, hi > lo * (1.0 + 1e-3)

    @settings(max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(sorted(FAMILIES)),
        log_weight=st.floats(-6.0, 9.0),
        log_scale=st.floats(-150.0, 150.0),
        u=st.floats(0.05, 0.95),
    )
    def test_gap_matches_a_secular_solve(self, seed, family, log_weight, log_scale, u):
        rng = np.random.default_rng(seed)
        spec = graph_spectrum(scale_weights(FAMILIES[family](rng), 10.0**log_weight))
        lambdas = spec.eigenvalues[1:]
        y, levels, has_c = self.rows_and_levels(spec, rng, 10.0**log_scale, u)
        assume(has_c)
        for case, rho in levels.items():
            for i, row in enumerate(y):
                result = sss(spec, row, rho)
                # max(0, chi_max) + nu*rho - value on the power-of-two-scaled coefficients
                (c,), (e,), _ = _scaled_sums(spec, row[None])
                nu, value = np.ldexp([result.nu_star, result.value], -2 * e)
                reference = np.ldexp(max(0.0, chi_max(c.copy(), lambdas, nu)) + nu * rho - value, 2 * e)
                assert abs(result.gap - reference) <= 1e-13 * result.value
                if i == 0:
                    assert result.case == case
                if i == 2:
                    assert (result.case, result.value, result.nu_star, result.gap) == ("a", 0.0, 0.0, 0.0)

    def test_sss_solves_no_secular_equation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sss called chi_max")

        monkeypatch.setattr(spectral, "chi_max", refuse)
        spec = graph_spectrum(gen_lattice(8, periodic=True))
        y, levels, has_c = self.rows_and_levels(spec, np.random.default_rng(4), 1.0, 0.5)
        assert has_c
        for case, rho in levels.items():
            result = sss(spec, y[0], rho)
            assert result.case == case
            assert abs(result.gap) <= 1e-12 * result.value
            assert sss(spec, y[2], rho).value == 0.0


def reference_values(spec, y, rho):
    """Values, cases and step counts of the ungrouped reference loop on the rows of ``y``."""
    # the coefficients are scaled by powers of two, which the cases and steps do not see
    coeffs, exps, _ = _scaled_sums(spec, y)
    lambdas = spec.eigenvalues[1:]
    solved = [kkt_solve_loop(c, lambdas, rho) for c in coeffs]
    values = np.ldexp([float(c @ z) ** 2 for c, (z, *_) in zip(coeffs, solved)], 2 * exps)
    return values, [case for _, case, _, _ in solved], [steps for *_, steps in solved]


class TestGroupedKernel:
    """The solve on one term per distinct eigenvalue against the ungrouped reference loop."""

    def test_groups_of_repeated_spectra(self):
        for g, count in ((gen_bbt(7), 33), (gen_lattice(48, periodic=True), 290), (gen_lattice(16), 128)):
            spec = graph_spectrum(g)
            starts, means = spec.groups
            assert starts.size == means.size == count
            lambdas = spec.eigenvalues[1:]
            sizes = np.diff(starts, append=lambdas.size)
            spread = np.maximum.reduceat(lambdas, starts) - np.minimum.reduceat(lambdas, starts)
            assert spread.max() <= 1e-14 * lambdas[-1]
            assert np.diff(means).min() >= 1e-4 * lambdas[-1]
            np.testing.assert_allclose(means, np.add.reduceat(lambdas, starts) / sizes, rtol=0.0, atol=0.0)
            assert not starts.flags.writeable and not means.flags.writeable

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_connected_graph(np.random.default_rng(5), max_n=40, min_n=30),
            lambda: gen_bbt(5),
            lambda: gen_lattice(8),
            lambda: gen_lattice(8, periodic=True),
            lambda: gen_kron_multiscale(two_triangles(), 2),
        ],
        ids=["random", "bbt5", "grid8", "torus8", "kron2"],
    )
    def test_matches_reference_loop(self, make):
        g = make()
        spec = graph_spectrum(g)
        rng = np.random.default_rng(g.n)
        y = rng.standard_normal((30, g.n))
        y[:15, : g.n // 4] += 1.5
        cases = set()
        lam2, lam_n = spec.eigenvalues[1], spec.eigenvalues[-1]
        for rho in lam2 * (lam_n / lam2) ** np.array([-0.5, 0.1, 0.3, 0.5, 1.0]):
            expected, expected_cases, expected_steps = reference_values(spec, y, rho)
            np.testing.assert_allclose(_sss_values(spec, y, rho), expected, rtol=1e-12, atol=0.0)
            for row, case, steps in zip(y, expected_cases, expected_steps):
                result = sss(spec, row, rho)
                assert (result.case, result.iterations) == (case, steps)
                feasible, primal, dual = sss_certificate(g, row, rho, result)
                assert feasible
                assert primal <= result.value * (1.0 + 1e-9)
                assert dual >= result.value * (1.0 - 1e-9)
                cases.add(case)
        assert cases == {"a", "b", "c"}

    def test_tie_free_spectrum_is_not_grouped(self):
        g = random_connected_graph(np.random.default_rng(5), max_n=40, min_n=30)
        spec = graph_spectrum(g)
        starts, means = spec.groups
        assert np.array_equal(starts, np.arange(g.n - 1))
        assert np.array_equal(means, spec.eigenvalues[1:])

    @pytest.mark.parametrize("inside", [True, False])
    def test_cluster_at_the_tolerance(self, inside):
        # a run of three eigenvalues whose neighbours lie just inside (0.99x) or
        # just outside (1.01x) the 1e-10 * lambda_max grouping tolerance
        n, lam_max = 9, 6.0
        step = (0.99 if inside else 1.01) * 1e-10 * lam_max
        lambdas = np.array([0.0, 1.0, 2.0, 3.0, 3.0 + step, 3.0 + 2 * step, 4.0, 5.0, lam_max])
        rng = np.random.default_rng(3)
        basis, _ = np.linalg.qr(np.column_stack((np.ones(n), rng.standard_normal((n, n - 1)))))
        spec = DenseSpectrum(eigenvalues=lambdas, order=np.arange(n), eigenvectors=basis)
        starts, _ = spec.groups
        assert starts.size == (6 if inside else 8)

        lap = basis @ np.diag(lambdas) @ basis.T
        for _ in range(20):
            y = rng.standard_normal(n)
            rho = draw_rho(rng, lambdas)
            (expected,), _, _ = reference_values(spec, y[None], rho)
            result = sss(spec, y, rho)
            # the group mean moves each eigenvalue of the run by at most step,
            # which moves the value by at most step / 3 relative
            assert result.value == pytest.approx(expected, rel=(step / 3.0) if inside else 1e-12)
            # and the ungrouped dual at nu* by at most nu* * step (Weyl)
            assert abs(result.gap) <= (result.nu_star * step if inside else 0.0) + 1e-12 * result.value
            x, yt = result.witness, center(y)
            assert x @ x <= 1.0 + 1e-9 and abs(x.sum()) <= 1e-9 and x @ lap @ x <= rho * (1.0 + 1e-9)
            assert float(x @ yt) ** 2 <= result.value * (1.0 + 1e-9)

    def test_scale_equivariance_over_300_decades(self):
        # the kernel scales the c_i**2 to sum 1, so theta**2 in case "c" stays
        # near 1 whatever the scale of y
        g = gen_lattice(12, periodic=True)
        spec = graph_spectrum(g)
        y = np.random.default_rng(2).standard_normal(g.n)
        base = sss(spec, y, 1.0)
        assert base.case == "c"
        for k in range(-150, 151, 10):
            scale = 10.0**k
            result = sss(spec, scale * y, 1.0)
            assert result.case == "c"
            assert result.value == pytest.approx(scale**2 * base.value, rel=1e-14, abs=0.0)
            assert result.nu_star == pytest.approx(scale**2 * base.nu_star, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("weight", [1e3, 1e6, 1e9])
    def test_heavy_weights_keep_the_value(self, weight):
        # the Laplacian and rho scale by the weight, so the root t scales by
        # its inverse and the value stays; the bisection's stopping rule is
        # relative to t, so a root far below 1 is found as precisely
        g = gen_bbt(3)
        heavy = scale_weights(g, weight)
        for seed in range(5):
            y = np.random.default_rng(seed).standard_normal(g.n)
            base = sss(graph_spectrum(g), y, 0.5)
            assert base.case == "c"
            for h in (heavy, build_graph(heavy.n, heavy.edges)):  # the tree form and the dense one
                result = sss(graph_spectrum(h), y, 0.5 * weight)
                assert result.case == "c"
                assert result.value == pytest.approx(base.value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("scale", [1e153, 1e-153])
    def test_value_and_certificate_at_extreme_scales(self, scale):
        # each row is scaled by a power of two before squaring, so the case
        # and the certificate hold where c_i**2 alone would overflow or underflow
        spec = graph_spectrum(gen_lattice(12, periodic=True))
        y = np.random.default_rng(2).standard_normal(144)
        base = sss(spec, y, 1.0)
        result = sss(spec, scale * y, 1.0)
        assert result.case == base.case == "c"
        assert result.value == pytest.approx(scale**2 * base.value, rel=1e-14, abs=0.0)
        assert abs(result.gap) <= 1e-12 * result.value
        assert _sss_values(spec, scale * y[None], 1.0)[0] == result.value

    def test_underflowing_value_is_refused(self):
        # 1e-154 keeps the value a normal double; at 1e-160 it would be
        # subnormal and inexact, so it is refused as an overflow is
        spec = graph_spectrum(gen_lattice(12, periodic=True))
        y = np.random.default_rng(2).standard_normal(144)
        base = sss(spec, y, 1.0).value
        assert sss(spec, 1e-154 * y, 1.0).value == pytest.approx(1e-308 * base, rel=1e-14, abs=0.0)
        with pytest.raises(ValueError, match="underflows"):
            sss(spec, 1e-160 * y, 1.0)
        with pytest.raises(ValueError, match="underflows"):
            _sss_values(spec, 1e-160 * y[None], 1.0)
        constant = sss(spec, np.full(144, 2.0**-530), 1.0)  # about 3e-160, centred exactly
        assert constant.value == constant.nu_star == constant.gap == 0.0

    def test_overflowing_value_is_refused(self):
        spec = graph_spectrum(gen_lattice(12, periodic=True))
        y = 1e154 * np.random.default_rng(2).standard_normal(144)
        with pytest.raises(ValueError, match="overflows"):
            sss(spec, y, 1.0)
        with pytest.raises(ValueError, match="overflows"):
            _sss_values(spec, y[None], 1.0)


class TestPrimalOracle:
    """The solve against the dense two-sided certificate of tests/helpers.py."""

    def test_p2_cases(self):
        g = build_graph(2, [(0, 1, 1.0)])
        y = np.array([1.0, -1.0])
        for rho, expected in ((2.0, 2.0), (1.0, 1.0)):
            feasible, primal, dual = sss_certificate(g, y, rho, sss(p2_spectrum(), y, rho))
            assert feasible
            assert primal == pytest.approx(expected, abs=1e-10)
            assert dual == pytest.approx(expected, abs=1e-10)

    def test_centered_zero(self):
        g = build_graph(2, [(0, 1, 1.0)])
        y = np.array([5.0, 5.0])
        assert sss_certificate(g, y, 1.0, sss(p2_spectrum(), y, 1.0)) == (True, 0.0, 0.0)

    def test_dual_primal_agreement(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            g = random_connected_graph(rng)
            spec = graph_spectrum(g)
            y = rng.standard_normal(g.n)
            rho = draw_rho(rng, spec.eigenvalues)
            result = sss(spec, y, rho)
            feasible, primal, dual = sss_certificate(g, y, rho, result)
            assert feasible
            assert result.value >= primal - 1e-8
            assert dual >= result.value - 1e-8
            assert dual - primal <= 1e-6 * (1 + result.value)


class TestSpectrumCsv:
    def test_eigenvalue_file(self, tmp_path):
        spec = p2_spectrum()
        path = tmp_path / "eigs.csv"
        write_spectrum_csv(spec, path)
        values = [float(line) for line in path.read_text().splitlines()]
        np.testing.assert_allclose(values, spec.eigenvalues, atol=1e-16)

    def test_vectors_file_column_major(self, tmp_path):
        spec = p2_spectrum()
        write_spectrum_csv(spec, tmp_path / "e.csv", vectors_path=tmp_path / "v.csv")
        values = [float(line) for line in (tmp_path / "v.csv").read_text().splitlines()]
        expected = np.concatenate([spec.eigenvectors[:, 0], spec.eigenvectors[:, 1]])
        np.testing.assert_allclose(values, expected, atol=1e-16)

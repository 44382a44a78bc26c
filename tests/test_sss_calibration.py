"""The SSS threshold from partly solved replicates, against solving every replicate in full."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphscan import (
    Detector,
    calibrate_threshold,
    gen_bbt,
    gen_kron_multiscale,
    gen_lattice,
    graph_spectrum,
    scale_weights,
    sss,
    two_triangles,
)
from graphscan import detectors, spectral
from graphscan.detectors import _replicate_statistics
from graphscan.spectral import (
    _BOUND_RTOL,
    _PATH_STEPS,
    _grouped_kkt,
    _path_bounds,
    _path_point,
    _path_weights,
    _scaled_sums,
)
from helpers import FAMILIES, draw_rho, grouped_kkt_loop, random_connected_graph

GRAPHS = {
    "bbt": lambda: gen_bbt(5),
    "torus": lambda: gen_lattice(6, periodic=True),
    "grid": lambda: gen_lattice(6),
    "kron": lambda: gen_kron_multiscale(two_triangles(), 2),
    "random": lambda: random_connected_graph(np.random.default_rng(8), max_n=30, min_n=30),
}
ALPHAS = (0.01, 0.05, 0.5, 0.99)


def full_solve_threshold(det, g, sigma, alpha, reps, seed):
    """The order statistic of every replicate solved in full, as the threshold is defined."""
    stats = _replicate_statistics((det,), g, ((0.0, reps),), sigma, seed)[:, 0]
    return np.sort(stats)[math.ceil((1.0 - alpha) * reps) - 1]


def counted_calls(monkeypatch, name):
    """Replace ``spectral.<name>`` by a wrapper that records each call's arguments in the list returned."""
    calls, function = [], getattr(spectral, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(spectral, name, counted)
    return calls


def case_c_rows(monkeypatch):
    """Replace ``spectral._grouped_kkt`` by a wrapper that records how many case-"c" rows each call returns.

    Those are the rows solved in full that need a root, whichever solver finds it.
    """
    counts, solve = [], spectral._grouped_kkt

    def counted(*args):
        result = solve(*args)
        counts.append(int(np.count_nonzero(result[1] == "c")))
        return result

    monkeypatch.setattr(spectral, "_grouped_kkt", counted)
    return counts


def rho_for(g, setting):
    lambdas = graph_spectrum(g).eigenvalues
    # every row in case "c" or a mix; every row in case "a" (rho >= lambda_n)
    # or in case "b" (rho < lambda_2)
    return {"mixed": math.sqrt(lambdas[1] * lambdas[-1]), "all-a": lambdas[-1], "all-b": 0.5 * lambdas[1]}[setting]


class TestBitForBit:
    @pytest.mark.parametrize("setting", ["mixed", "all-a", "all-b"])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_matches_sorting_full_solves(self, monkeypatch, name, setting):
        g = GRAPHS[name]()
        det = Detector("sss", rho=rho_for(g, setting))
        # the default block, then blocks of 1 and 7 rows
        runs = [(None, 100, 1.0), (None, 257, 1.0), (None, 100, 0.0)]
        if setting == "mixed":
            runs += [(1, 100, 1.0), (7, 100, 1.0)]
        for rows, reps, sigma in runs:
            if rows is not None:
                monkeypatch.setattr(detectors, "_BLOCK_ENTRIES", rows * g.n)
            stats = np.sort(_replicate_statistics((det,), g, ((0.0, reps),), sigma, 11)[:, 0])
            for alpha in ALPHAS:
                threshold = calibrate_threshold(det, g, sigma, alpha, reps, 11)
                assert threshold == stats[math.ceil((1.0 - alpha) * reps) - 1]
                assert type(threshold) is float

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_open_roots_past_the_cap_are_solved_in_full(self, monkeypatch, alpha):
        g = gen_lattice(6, periodic=True)
        det = Detector("sss", rho=rho_for(g, "mixed"))
        expected = full_solve_threshold(det, g, 1.0, alpha, 150, 4)
        monkeypatch.setattr(spectral, "_OPEN_ENTRIES", 1)
        assert calibrate_threshold(det, g, 1.0, alpha, 150, 4) == expected

    @pytest.mark.parametrize(
        "make, rho, reps, seeds, alphas",
        [
            (lambda: gen_lattice(48, periodic=True), 4.0 / 48, 100, range(5), (0.05,)),
            (lambda: gen_bbt(7), 4.0 / 255, 1000, range(1), (0.05,)),
            (lambda: gen_lattice(12, periodic=True), 2.0, 200, range(5), (0.05, 0.5)),
        ],
        ids=["torus-48", "bbt-7", "torus-12-mid"],
    )
    def test_matches_sorting_full_solves_where_refined_bounds_meet(self, make, rho, reps, seeds, alphas):
        # graphs on which a refined row's bounds, unwidened, can round to one
        # double though the row is not solved; at rho 2 on the 12x12 torus
        # 188-200 of the 200 rows are refined
        g = make()
        det = Detector("sss", rho=rho)
        for seed in seeds:
            for alpha in alphas:
                expected = full_solve_threshold(det, g, 1.0, alpha, reps, seed)
                assert calibrate_threshold(det, g, 1.0, alpha, reps, seed) == expected

    def test_few_replicates_are_solved_in_full(self, monkeypatch):
        g = gen_lattice(12, periodic=True)
        det = Detector("sss", rho=2.0)  # 199 of the 200 rows in case "c"
        expected = full_solve_threshold(det, g, 1.0, 0.05, 200, 2)
        solved = case_c_rows(monkeypatch)
        assert calibrate_threshold(det, g, 1.0, 0.05, 200, 2) == expected
        assert 1 <= sum(solved) <= 10

    def test_few_replicates_of_the_large_torus_are_solved(self, monkeypatch):
        g = gen_lattice(48, periodic=True)
        det = Detector("sss", rho=4.0 / 48)
        solved = case_c_rows(monkeypatch)
        for seed in range(10):
            calibrate_threshold(det, g, 1.0, 0.05, 100, seed)
        # one per call holds the rank; solving every replicate would take 1000
        assert sum(solved) <= 15

    @pytest.mark.parametrize(
        "make, rho",
        [(lambda: gen_lattice(48, periodic=True), 4.0 / 48), (lambda: gen_bbt(7), 4.0 / 255)],
        ids=["torus-48", "bbt-7"],
    )
    def test_rows_in_contention_are_refined_once_a_chunk_at_a_time(self, monkeypatch, make, rho):
        g = make()
        det = Detector("sss", rho=rho)
        expected = full_solve_threshold(det, g, 1.0, 0.05, 1000, 0)
        # chunks of three rows of group sums, so the refinement spans many calls;
        # the replicate blocks keep their size (detectors holds its own copy)
        monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 3 * graph_spectrum(g).groups[0].size)
        calls = counted_calls(monkeypatch, "_path_bounds")
        assert calibrate_threshold(det, g, 1.0, 0.05, 1000, 0) == expected
        refined = [sums for sums, _, steps in calls if steps > 0]
        assert len(refined) > 1
        assert all(sums.size <= spectral._BLOCK_ENTRIES for sums in refined)
        rows = [row.tobytes() for sums in refined for row in sums]
        assert len(set(rows)) == len(rows)

    def test_joint_scaling_of_weights_and_rho_keeps_the_threshold(self):
        # the 6x6 torus read 40.84 at a weight scale of 1e60 and 31.84 at
        # 1e100; the 4x4 grid read 18.0636 for 16.3001 at 1e-200
        for g, rho in ((gen_lattice(6, periodic=True), 3.0), (gen_lattice(4), 1.1)):
            expected = calibrate_threshold(Detector("sss", rho=rho), g, 1.0, 0.05, 200, 3)
            for k in range(-300, 301):
                det = Detector("sss", rho=rho * 10.0**k)
                scaled = calibrate_threshold(det, scale_weights(g, 10.0**k), 1.0, 0.05, 200, 3)
                assert scaled == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sigma, match", [(1e160, "overflows"), (1e-160, "underflows")])
    def test_refuses_extreme_scales_as_a_full_solve_does(self, sigma, match):
        g = gen_lattice(6, periodic=True)
        det = Detector("sss", rho=rho_for(g, "mixed"))
        with pytest.raises(ValueError, match=match):
            full_solve_threshold(det, g, sigma, 0.05, 100, 3)
        with pytest.raises(ValueError, match=match):
            calibrate_threshold(det, g, sigma, 0.05, 100, 3)


def case_c_rho(spec, y, u):
    """A level between the case-"b" and case-"a" limits of ``y``, so ``y`` is in case "c" there."""
    c = spec.project(y - y.mean())
    lambdas = spec.eigenvalues[1:]
    p = c * c / float(c @ c)
    lo, hi = float((p / lambdas).sum() / (p / lambdas**2).sum()), float(p @ lambdas)
    assume(hi > lo * (1.0 + 1e-6))
    return lo ** (1.0 - u) * hi**u


def rho_in(lambdas, regime, u):
    """A level below lambda_2, between lambda_2 and lambda_n, or at least lambda_n, placed by ``u`` in [0, 1]."""
    lam2, lamn = float(lambdas[1]), float(lambdas[-1])
    levels = {"below": lam2 * (0.01 + 0.98 * u), "between": lam2 ** (1.0 - u) * lamn**u, "above": lamn * (1.0 + 3.0 * u)}
    return levels[regime]


class TestBounds:
    @settings(max_examples=90)
    @given(
        seed=st.integers(0, 2**32 - 1),
        regime=st.sampled_from(["below", "between", "above"]),
        u=st.floats(0.0, 1.0),
    )
    def test_closed_form_bounds_enclose_the_value(self, seed, regime, u):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, min_n=3)
        spec = graph_spectrum(g)
        rho = rho_in(spec.eigenvalues, regime, u)
        sums, mu = _scaled_sums(spec, rng.standard_normal((8, g.n)))[2], spec.groups[1] / rho
        values, cases = _grouped_kkt(sums, mu)[:2]
        for (low, high), value, case in zip(_path_bounds(sums, mu, 0), values, cases):
            assert low * (1.0 - _BOUND_RTOL) <= value <= high * (1.0 + _BOUND_RTOL)
            if case != "c":
                assert low == pytest.approx(value, rel=1e-12, abs=0.0)
                assert high == pytest.approx(value, rel=1e-12, abs=0.0)

    @settings(max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(sorted(FAMILIES)),
        regime=st.sampled_from(["below", "between", "above", "case-c"]),
        u=st.floats(0.0, 1.0),
        log_weight=st.floats(-6.0, 9.0),
    )
    def test_every_point_of_the_path_bounds_the_value(self, seed, family, regime, u, log_weight):
        rng = np.random.default_rng(seed)
        g = scale_weights(FAMILIES[family](rng), 10.0**log_weight)
        spec = graph_spectrum(g)
        y = rng.standard_normal((6, g.n))
        rho = case_c_rho(spec, y[0], u) if regime == "case-c" else rho_in(spec.eigenvalues, regime, u)
        sums, mu = _scaled_sums(spec, y)[2], spec.groups[1] / rho
        values, cases, _, roots, _ = _grouped_kkt(sums, mu)
        weights = _path_weights(mu)

        def bounds_at(u):
            return np.stack(_path_point(sums, mu, weights, u)[:2], axis=1)

        # 0+, points across the spectrum and beyond, and infinity, where
        # u + mu rounds to mu and to u
        zero, infinity = bounds_at(np.full(6, mu[0] * 1e-17)), bounds_at(np.full(6, mu[-1] * 1e17))
        spread = np.exp(rng.uniform(math.log(mu[0] * 1e-3), math.log(mu[-1] * 1e3), (4, 6)))
        refined = _path_bounds(sums, mu, _PATH_STEPS)
        for bounds in [zero, infinity, *map(bounds_at, spread), refined]:
            assert (bounds[:, 0] * (1.0 - _BOUND_RTOL) <= values).all()
            assert (values <= bounds[:, 1] * (1.0 + _BOUND_RTOL)).all()
        closed = _path_bounds(sums, mu, 0)
        np.testing.assert_allclose(np.maximum(zero[:, 0], infinity[:, 0]), closed[:, 0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(np.minimum(zero[:, 1], infinity[:, 1]), closed[:, 1], rtol=1e-12, atol=0.0)
        # the bounds at a case-"c" row's root, and the refined bounds of the
        # others, which start at the closed forms, are the value
        for row, bounds, value, case, root in zip(sums, refined, values, cases, roots):
            if case == "c":
                bounds = np.concatenate(_path_point(row[None], mu, weights, np.array([1.0 / root]))[:2])
            assert bounds == pytest.approx([value, value], rel=1e-12, abs=0.0)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_value_does_not_decrease_as_rho_grows(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, min_n=3)
        spec = graph_spectrum(g)
        y = rng.standard_normal(g.n)
        rhos = sorted(draw_rho(rng, spec.eigenvalues) for _ in range(6))
        values = [sss(spec, y, rho).value for rho in rhos]
        for smaller, larger in zip(values, values[1:]):
            assert smaller <= larger * (1.0 + 1e-12)


class TestBlockSolve:
    """The KKT solve of a chunk of group sums against the row-by-row reference."""

    @settings(max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(sorted(FAMILIES)),
        regime=st.sampled_from(["below", "between", "above", "case-c"]),
        u=st.floats(0.0, 1.0),
        log_weight=st.floats(-6.0, 9.0),
    )
    def test_matches_the_row_by_row_solve(self, seed, family, regime, u, log_weight):
        rng = np.random.default_rng(seed)
        g = scale_weights(FAMILIES[family](rng), 10.0**log_weight)
        spec = graph_spectrum(g)
        y = rng.standard_normal((6, g.n))
        rho = case_c_rho(spec, y[0], u) if regime == "case-c" else rho_in(spec.eigenvalues, regime, u)
        sums, mu = _scaled_sums(spec, y)[2], spec.groups[1] / rho
        solved = _grouped_kkt(sums, mu)
        for i, row in enumerate(sums):
            expected = grouped_kkt_loop(row, mu)
            assert tuple(field[i] for field in solved) == expected
            assert solved[0][i].tobytes() == np.float64(expected[0]).tobytes()

    def test_a_row_at_its_case_b_limit_roots_in_few_steps(self):
        # the seed-4048545 torus example of the test above, at u = 0: rho is the first row's own
        # case-"b" limit, and its gap rounds to exactly 0 from s of about 2**50 and turns negative
        # only near 2**510, so doubling until the gap is negative took 1017 steps
        rng = np.random.default_rng(4048545)
        g = FAMILIES["torus"](rng)
        spec = graph_spectrum(g)
        y = rng.standard_normal((6, g.n))
        c = spec.project(y[0] - y[0].mean())
        p, lambdas = c * c / float(c @ c), spec.eigenvalues[1:]
        rho = float((p / lambdas).sum() / (p / lambdas**2).sum())  # case_c_rho at u = 0, without assume
        sums, mu = _scaled_sums(spec, y)[2], spec.groups[1] / rho
        value, case, _, _, steps = (field[0] for field in _grouped_kkt(sums, mu))
        assert (case, grouped_kkt_loop(sums[0], mu)[-1]) == ("c", steps)
        assert steps <= 120
        assert value == pytest.approx(float((sums[0] / mu).sum()), rel=1e-14, abs=0.0)

    def test_each_row_of_a_mixed_chunk_gets_its_own_bits(self):
        g = gen_lattice(8, periodic=True)
        spec = graph_spectrum(g)
        lambdas = spec.eigenvalues
        rho = math.sqrt(lambdas[1] * lambdas[-1])
        low, high = spec.expand(np.eye(g.n - 1)[0]), spec.expand(np.eye(g.n - 1)[-1])
        # the lowest mode alone is in case "a", the highest alone in case "b",
        # noise in case "c", and a constant row is all zeros
        y = np.vstack([low, high, np.zeros(g.n), *np.random.default_rng(3).standard_normal((5, g.n))])
        sums, mu = _scaled_sums(spec, y)[2].copy(), spec.groups[1] / rho
        solved = _grouped_kkt(sums, mu)
        assert set(solved[1]) == {"a", "b", "c"}
        for i in range(len(sums)):
            alone = _grouped_kkt(sums[i : i + 1].copy(), mu)
            assert [field[i : i + 1].tobytes() for field in solved] == [field.tobytes() for field in alone]

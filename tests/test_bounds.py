"""Closed-form detectability bounds and their relationships."""
import math

import numpy as np
import pytest

from graphscan import (
    bbt_lambda2_bound,
    bounds_report,
    build_graph,
    chi_max,
    gen_bbt,
    gen_kron_multiscale,
    gen_lattice,
    graph_spectrum,
    naive_bounds,
    noncentrality,
    null_threshold,
    spectral_snr_bound,
    truncated_bound,
    two_triangles,
)
from graphscan.bounds import format_report
from helpers import draw_rho, random_connected_graph, truncated_bound_loop


def p2_spectrum():
    return graph_spectrum(build_graph(2, [(0, 1, 1.0)]))


def k3_spectrum():
    return graph_spectrum(build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]))


class TestSpectralSnrBound:
    def test_p2_single_term(self):
        assert spectral_snr_bound(p2_spectrum(), 1.0) == pytest.approx(math.sqrt(0.5))

    def test_saturates_at_sqrt_n_minus_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_connected_graph(rng)
            spec = graph_spectrum(g)
            lam_max = spec.eigenvalues[-1]
            assert spectral_snr_bound(spec, lam_max * 1.01) == pytest.approx(math.sqrt(g.n - 1))
            rho = draw_rho(rng, spec.eigenvalues)
            value = spectral_snr_bound(spec, rho)
            assert value <= math.sqrt(g.n - 1) + 1e-12
            if rho < lam_max * (1 - 1e-9):
                assert value < math.sqrt(g.n - 1) - 1e-9 or math.isclose(
                    value, math.sqrt(g.n - 1)
                )

    def test_monotone_vanishing_rho(self):
        spec = k3_spectrum()
        values = [spectral_snr_bound(spec, rho) for rho in (1.0, 0.1, 0.01, 0.001)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.05

    def test_rejects_disconnected(self):
        g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        from graphscan import eig_sym, laplacian

        with pytest.raises(ValueError, match="connected"):
            spectral_snr_bound(eig_sym(laplacian(g)), 1.0)

    def test_rejects_two_paths_whatever_the_rounding_of_lambda_2(self):
        # eig_sym gives a disconnected graph a lambda_2 of about +-1e-16, on
        # either side of zero; the test is relative to lambda_max
        from graphscan import eig_sym, laplacian

        for k in range(3, 40):
            g = build_graph(2 * k, [(i, i + 1, 1.0) for i in range(2 * k - 1) if i != k - 1])
            spec = eig_sym(laplacian(g))
            with pytest.raises(ValueError, match="connected"):
                spectral_snr_bound(spec, 1.0)
            with pytest.raises(ValueError, match="connected"):
                truncated_bound(spec, 1.0)


class TestTruncatedBound:
    def test_p2_only_admissible_k(self):
        value, k = truncated_bound(p2_spectrum(), 1.0)
        assert k == 1
        assert value == pytest.approx(math.sqrt(1.5))

    def test_dominates_sum_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            g = random_connected_graph(rng)
            spec = graph_spectrum(g)
            rho = draw_rho(rng, spec.eigenvalues)
            if spec.eigenvalues[-1] <= rho:
                continue
            value, _ = truncated_bound(spec, rho)
            assert value >= spectral_snr_bound(spec, rho) - 1e-12

    def test_no_admissible_k(self):
        with pytest.raises(ValueError, match="admissible"):
            truncated_bound(k3_spectrum(), 4.0)


class TestNullThreshold:
    def test_p2_formula_value(self):
        # independent recoding of the displayed expression
        expected = (math.sqrt(2.0 * 1.0) + math.sqrt(2.0 * math.log(2.0 / 0.1))) ** 2
        assert expected == pytest.approx(14.9147, abs=5e-4)
        assert null_threshold(p2_spectrum(), 2.0, 1.0, 0.1) == pytest.approx(expected, rel=1e-12)

    def test_deviation_term_shrinks_with_looser_confidence(self):
        # log(2/conf) falls toward log 2 as conf -> 1, so the threshold decreases
        spec = p2_spectrum()
        values = [null_threshold(spec, 2.0, 1.0, conf) for conf in (0.01, 0.1, 0.5, 0.999999)]
        assert all(a > b for a, b in zip(values, values[1:]))
        floor = (math.sqrt(2.0) * spectral_snr_bound(spec, 2.0) + math.sqrt(2.0 * math.log(2.0))) ** 2
        assert values[-1] == pytest.approx(floor, rel=1e-3)

    def test_scales_with_sigma_squared(self):
        spec = k3_spectrum()
        assert null_threshold(spec, 1.0, 3.0, 0.1) == pytest.approx(
            9.0 * null_threshold(spec, 1.0, 1.0, 0.1)
        )

    def test_sigma_beyond_a_finite_threshold_is_refused(self):
        # sigma**2 alone overflowed as a Python float power for sigma above about 1.3e154
        spec = graph_spectrum(gen_lattice(3, periodic=True))
        assert math.isfinite(null_threshold(spec, 1.0, 1e150, 0.1))
        with pytest.raises(ValueError, match=r"^sigma must be small enough for a finite threshold, got 1e\+200$"):
            null_threshold(spec, 1.0, 1e200, 0.1)

    @pytest.mark.parametrize("conf", [0.0, 1.0, 2.0])
    def test_rejects_bad_confidence(self, conf):
        with pytest.raises(ValueError, match=rf"^conf must be in \(0, 1\), got {conf}$"):
            null_threshold(p2_spectrum(), 1.0, 1.0, conf)


class TestNaiveBounds:
    def test_smallest_case(self):
        energy, edge = naive_bounds(2, 1)
        assert energy == 1.0
        assert edge == pytest.approx(math.sqrt(math.log(2)))

    def test_energy_is_sqrt_n_minus_one(self):
        assert naive_bounds(101, 50)[0] == 10.0

    def test_edge_monotone_in_cluster_size(self):
        edges = [naive_bounds(100, k)[1] for k in (1, 10, 25, 50)]
        assert all(a < b for a, b in zip(edges, edges[1:]))

    def test_rejects_oversized_cluster(self):
        with pytest.raises(ValueError, match="max_cluster"):
            naive_bounds(10, 6)


class TestNoncentrality:
    def test_balanced_pair(self):
        assert noncentrality(1.0, 1.0, 1, 2) == pytest.approx(0.5)

    def test_reference_size(self):
        assert noncentrality(0.8, 1.0, 64, 256) == pytest.approx(30.72)

    def test_zero_gap(self):
        assert noncentrality(0.0, 1.0, 5, 20) == 0.0

    def test_equals_squared_snr(self):
        from graphscan import Cluster, SignalSpec, snr

        spec = SignalSpec(n=256, mu=0.0, delta=0.8, cluster=Cluster(frozenset(range(64))))
        assert noncentrality(0.8, 1.0, 64, 256) == pytest.approx(snr(spec, 1.0) ** 2)


class TestBbtLambda2Bound:
    def test_reference_values(self):
        assert bbt_lambda2_bound(3) == 113.0
        assert bbt_lambda2_bound(4) == 16.0

    def test_small_depths_hold_numerically(self):
        # the simplified bound is valid while the indicator term is active
        for depth in (2, 3):
            lam2 = graph_spectrum(gen_bbt(depth)).eigenvalues[1]
            assert 1.0 / lam2 <= bbt_lambda2_bound(depth)

    def test_reciprocal_tracks_doubled_bound(self):
        # for deeper trees 1/lambda_2 lands between 2**depth and 2**(depth+1):
        # the stated simplified form undercounts the tree's levels by one
        for depth in (4, 5, 6):
            lam2 = graph_spectrum(gen_bbt(depth)).eigenvalues[1]
            assert 2.0**depth < 1.0 / lam2 <= 2.0 ** (depth + 1)


class TestBoundsReport:
    def test_assembles_and_formats(self):
        report = bounds_report(p2_spectrum(), rho=1.0, sigma=1.0, conf=0.1)
        assert report.truncated_bound >= report.spectral_sum_bound
        assert report.spectral_sum_bound <= math.sqrt(report.n - 1)
        text = format_report(report)
        lines = dict(line.split(" = ") for line in text.strip().splitlines())
        assert float(lines["energy_bound"]) == 1.0

    def test_truncated_none_when_inadmissible(self):
        report = bounds_report(k3_spectrum(), rho=4.0, sigma=1.0, conf=0.1)
        assert report.truncated_bound is None
        assert "truncated_bound = none" in format_report(report)


class TestTruncatedBoundArray:
    def test_matches_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(41)
        graphs = [gen_bbt(7), gen_lattice(16), gen_kron_multiscale(two_triangles(), 2)]
        graphs += [random_connected_graph(rng) for _ in range(10)]
        for g in graphs:
            spec = graph_spectrum(g)
            lam_max = spec.eigenvalues[-1]
            rhos = [draw_rho(rng, spec.eigenvalues) for _ in range(5)] + [lam_max, 2.0 * lam_max]
            rhos += list(spec.eigenvalues[1:4])  # rho equal to an eigenvalue, which is inadmissible
            for rho in rhos:
                expected = truncated_bound_loop(spec.eigenvalues[1:], rho)
                if expected is None:
                    with pytest.raises(ValueError, match="admissible"):
                        truncated_bound(spec, rho)
                else:
                    value, k = truncated_bound(spec, rho)
                    assert (value, k) == expected
                    assert type(value) is float and type(k) is int


class TestOutOfRangeParameters:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: naive_bounds(1, 1), "n must be >= 2"),
            (lambda: bbt_lambda2_bound(0), "depth must be >= 1"),
            (lambda: noncentrality(1.0, 1.0, 0, 10), r"^cluster_size must be in 1\.\.9, got 0$"),
        ],
        ids=["naive_n1", "bbt_depth0", "noncentrality_size0"],
    )
    def test_refused(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name, call",
        [
            ("rho", lambda bad: spectral_snr_bound(k3_spectrum(), bad)),
            ("rho", lambda bad: truncated_bound(k3_spectrum(), bad)),
            ("rho", lambda bad: null_threshold(k3_spectrum(), bad, 1.0, 0.1)),
            ("rho", lambda bad: bounds_report(k3_spectrum(), bad, 1.0, 0.1)),
            ("sigma", lambda bad: null_threshold(k3_spectrum(), 1.0, bad, 0.1)),
            ("sigma", lambda bad: bounds_report(k3_spectrum(), 1.0, bad, 0.1)),
            ("sigma", lambda bad: noncentrality(1.0, bad, 3, 10)),
            ("delta", lambda bad: noncentrality(bad, 1.0, 3, 10)),
            ("nu", lambda bad: chi_max(np.array([1.0, 2.0]), np.array([1.0, 2.0]), bad)),
            ("c", lambda bad: chi_max(np.array([bad, 1.0]), np.array([1.0, 2.0]), 1.0)),
            ("lambdas", lambda bad: chi_max(np.array([1.0, 1.0]), np.array([1.0, abs(bad)]), 1.0)),
        ],
        ids=[
            "snr_rho", "truncated_rho", "threshold_rho", "report_rho", "threshold_sigma",
            "report_sigma", "noncentrality_sigma", "noncentrality_delta", "chi_max_nu",
            "chi_max_c", "chi_max_lambdas",
        ],
    )
    def test_non_finite_refused_by_name(self, name, call, bad):
        with pytest.raises(ValueError, match=f"^{name} "):
            call(bad)

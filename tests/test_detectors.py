"""Detector statistics, their shared invariances, and Monte Carlo calibration."""
import math

import numpy as np
import pytest

from graphscan import (
    Detector,
    EmptyClassError,
    build_graph,
    calibrate_threshold,
    edge_stat,
    energy_stat,
    gen_bbt,
    gen_lattice,
    glr_exact,
    glr_unconstrained,
    graph_spectrum,
    replicate_rng,
    scale_weights,
    sss,
    sss_stat,
)
from graphscan import detectors
from graphscan.detectors import DETECTOR_KINDS
from helpers import draw_rho, glr_brute_force, random_connected_graph


def p2():
    return build_graph(2, [(0, 1, 1.0)])


def k3():
    return build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


class TestEnergyStat:
    def test_centered_pair(self):
        assert energy_stat(np.array([1.0, -1.0])) == pytest.approx(2.0)

    def test_constant_is_zero(self):
        assert energy_stat(np.full(7, 3.0)) == pytest.approx(0.0, abs=1e-24)

    def test_already_centered_triple(self):
        assert energy_stat(np.array([2.0, 0.0, -2.0])) == pytest.approx(8.0)

    def test_one_off_calls_share_one_edgeless_graph(self):
        y = np.random.default_rng(2).standard_normal(9)
        assert detectors._edgeless(9) is detectors._edgeless(9)
        g = build_graph(9, [])
        assert detectors._edgeless(9) == g
        assert energy_stat(y) == Detector("energy").statistic(g, y)
        assert glr_unconstrained(y) == Detector("glr_unconstrained").statistic(g, y)


class TestEdgeStat:
    def test_path_two(self):
        assert edge_stat(p2(), np.array([1.0, -1.0])) == 2.0

    def test_constant_is_zero(self):
        assert edge_stat(k3(), np.full(3, 9.0)) == 0.0

    def test_path_three(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert edge_stat(g, np.array([0.0, 1.0, 3.0])) == 2.0

    def test_ignores_weights(self):
        heavy = build_graph(2, [(0, 1, 50.0)])
        assert edge_stat(heavy, np.array([1.0, -1.0])) == 2.0

    def test_rejects_disconnected(self):
        g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match="connected"):
            edge_stat(g, np.zeros(4))


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_statistics_reject_non_finite_observation(self, bad):
        y = np.array([1.0, bad, -1.0])
        for stat in (
            energy_stat,
            glr_unconstrained,
            lambda v: edge_stat(k3(), v),
            lambda v: sss_stat(k3(), v, 1.0),
            lambda v: glr_exact(k3(), v, 3.0),
        ):
            with pytest.raises(ValueError, match="NaN or infinite"):
                stat(y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rho_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="rho"):
            glr_exact(k3(), np.array([1.0, 0.0, -1.0]), bad)
        for kind in ("sss", "glr_exact"):
            with pytest.raises(ValueError, match="rho"):
                Detector(kind, rho=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_calibration_sigma_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="sigma"):
            calibrate_threshold(Detector("energy"), p2(), bad, 0.1, 100, 0)


class TestGlrExact:
    def test_p2_both_singletons(self):
        assert glr_exact(p2(), np.array([1.0, -1.0]), 2.0) == pytest.approx(2.0)

    def test_k3_singleton_optimum(self):
        # enumerate all 6 proper subsets by hand: C={0} gives (3/2) * 2^2 = 6
        assert glr_exact(k3(), np.array([2.0, -1.0, -1.0]), 3.0) == pytest.approx(6.0)

    def test_empty_class_error(self):
        with pytest.raises(EmptyClassError):
            glr_exact(p2(), np.array([1.0, -1.0]), 1.0)

    def test_size_guard(self):
        g = build_graph(23, [(i, i + 1, 1.0) for i in range(22)])
        with pytest.raises(ValueError, match="n <= 22"):
            glr_exact(g, np.zeros(23), 1.0)

    def test_matches_brute_force_with_constraint(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            g = random_connected_graph(rng, max_n=9)
            y = rng.standard_normal(g.n)
            rho = float(rng.uniform(0.5, 6.0))
            try:
                expected = glr_brute_force(g, y, rho)
            except ValueError:
                with pytest.raises(EmptyClassError):
                    glr_exact(g, y, rho)
                continue
            assert glr_exact(g, y, rho) == pytest.approx(expected, rel=1e-12)

    def test_connected_flag_never_increases(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 30:
            g = random_connected_graph(rng, max_n=8)
            y = rng.standard_normal(g.n)
            rho = float(rng.uniform(1.0, 6.0))
            try:
                free = glr_exact(g, y, rho, require_connected=False)
                restricted = glr_exact(g, y, rho, require_connected=True)
            except EmptyClassError:
                continue
            assert restricted <= free + 1e-12
            checked += 1

    def test_connected_matches_brute_force(self):
        rng = np.random.default_rng(29)
        empty = 0
        for _ in range(60):
            g = random_connected_graph(rng, max_n=9)
            y = rng.standard_normal(g.n)
            rho = float(rng.uniform(0.5, 6.0))
            try:
                expected = glr_brute_force(g, y, rho, require_connected=True)
            except ValueError:
                with pytest.raises(EmptyClassError, match="connected"):
                    glr_exact(g, y, rho, require_connected=True)
                empty += 1
                continue
            assert glr_exact(g, y, rho, require_connected=True) == pytest.approx(expected, rel=1e-12)
        assert 0 < empty < 30


class TestGlrUnconstrained:
    def test_k3_equals_exact(self):
        assert glr_unconstrained(np.array([2.0, -1.0, -1.0])) == pytest.approx(6.0)

    def test_constant_is_zero(self):
        assert glr_unconstrained(np.full(4, 2.5)) == pytest.approx(0.0, abs=1e-24)

    def test_two_point(self):
        assert glr_unconstrained(np.array([1.0, -1.0])) == pytest.approx(2.0)

    def test_equals_brute_force_exactly(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            g = random_connected_graph(rng)
            y = rng.standard_normal(g.n)
            assert glr_unconstrained(y) == glr_brute_force(g, y)


class TestSssStat:
    def test_p2(self):
        assert sss_stat(p2(), np.array([1.0, -1.0]), 2.0) == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("scale", [1e-9, 1e-6])
    def test_connectivity_test_is_relative(self, scale):
        # lambda_2 of the scaled tree is about 0.1 * scale: connected at any scale
        g = gen_bbt(3)
        y = np.random.default_rng(43).standard_normal(g.n)
        expected = sss_stat(g, y, 0.5)
        assert sss_stat(scale_weights(g, scale), y, 0.5 * scale) == pytest.approx(expected, rel=1e-12)

    def test_constant_is_zero(self):
        assert sss_stat(k3(), np.full(3, 1.0), 1.0) == 0.0

    def test_dominates_glr_exact(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 40:
            g = random_connected_graph(rng)
            y = rng.standard_normal(g.n)
            rho = float(rng.uniform(0.3, 6.0))
            try:
                exact = glr_exact(g, y, rho)
            except EmptyClassError:
                continue
            assert sss_stat(g, y, rho) >= exact - 1e-8
            checked += 1

    def test_spectrum_cache_reused(self):
        g = gen_lattice(4)
        rng = np.random.default_rng(2)
        values = [sss_stat(g, rng.standard_normal(g.n), 0.5) for _ in range(3)]
        assert all(v >= 0 for v in values)


class TestNuisanceInvariance:
    @pytest.mark.parametrize("shift", [-5.0, 1.0, 100.0])
    def test_all_statistics_ignore_constant_shift(self, shift):
        rng = np.random.default_rng(43)
        for _ in range(10):
            g = random_connected_graph(rng, max_n=10)
            y = rng.standard_normal(g.n)
            rho = float(rng.uniform(0.5, 4.0))
            shifted = y + shift
            pairs = [
                (energy_stat(y), energy_stat(shifted)),
                (edge_stat(g, y), edge_stat(g, shifted)),
                (glr_unconstrained(y), glr_unconstrained(shifted)),
                (sss_stat(g, y, rho), sss_stat(g, shifted, rho)),
            ]
            try:
                pairs.append((glr_exact(g, y, rho), glr_exact(g, shifted, rho)))
            except EmptyClassError:
                pass
            for a, b in pairs:
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


class TestDetector:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown detector"):
            Detector("sum")

    def test_rho_required_for_constrained(self):
        with pytest.raises(ValueError, match="rho"):
            Detector("sss")
        with pytest.raises(ValueError, match="rho"):
            Detector("glr_exact", rho=0.0)

    def test_dispatch_matches_functions(self):
        y = np.array([2.0, -1.0, -1.0])
        assert Detector("energy").statistic(k3(), y) == energy_stat(y)
        assert Detector("sss", rho=1.0).statistic(k3(), y) == sss_stat(k3(), y, 1.0)


class TestObservationLength:
    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_every_kind_rejects_wrong_length(self, kind):
        det = Detector(kind, rho=1.0)
        with pytest.raises(ValueError, match="length 4, expected 15"):
            det.statistic(gen_bbt(3), np.arange(4.0))
        with pytest.raises(ValueError, match="length 4, expected 15"):
            det.statistics(gen_bbt(3), np.zeros((3, 4)))

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    @pytest.mark.parametrize("shape", [(15,), (1, 1, 15)])
    def test_block_must_be_two_dimensional(self, kind, shape):
        with pytest.raises(ValueError, match="expected a block of observation rows"):
            Detector(kind, rho=1.0).statistics(gen_bbt(3), np.zeros(shape))

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_every_kind_rejects_a_one_vertex_graph(self, kind):
        with pytest.raises(ValueError, match="two vertices"):
            Detector(kind, rho=1.0).statistic(build_graph(1, []), np.zeros(1))


class TestBlockStatistics:
    @staticmethod
    def blocks():
        rng = np.random.default_rng(53)
        for _ in range(20):
            g = random_connected_graph(rng)
            yield g, rng.standard_normal((7, g.n)), draw_rho(rng, graph_spectrum(g).eigenvalues)
        torus = gen_lattice(8, periodic=True)
        for rho in (0.1, 1.0, 10.0):
            yield torus, rng.standard_normal((30, torus.n)), rho

    def test_block_matches_row_by_row(self):
        for g, y, rho in self.blocks():
            for kind in ("energy", "edge", "glr_unconstrained"):
                det = Detector(kind)
                assert det.statistics(g, y).tolist() == [det.statistic(g, row) for row in y]
            det = Detector("sss", rho=rho)
            rows = [det.statistic(g, row) for row in y]
            np.testing.assert_allclose(det.statistics(g, y), rows, rtol=1e-12, atol=0.0)

    def test_glr_exact_block_matches_row_by_row(self):
        checked = 0
        for g, y, rho in self.blocks():
            if g.n > 12:
                continue
            for connected in (False, True):
                det = Detector("glr_exact", rho=rho, require_connected=connected)
                try:
                    block = det.statistics(g, y)
                except EmptyClassError:
                    with pytest.raises(EmptyClassError):
                        det.statistic(g, y[0])
                    continue
                rows = [det.statistic(g, row) for row in y]
                np.testing.assert_allclose(block, rows, rtol=1e-12, atol=0.0)
                checked += 1
        assert checked >= 10

    def test_sss_statistic_is_sss_value_bit_for_bit(self):
        for g, y, rho in self.blocks():
            det = Detector("sss", rho=rho)
            for row in y:
                assert det.statistic(g, row) == sss(graph_spectrum(g), row, rho).value


class TestCalibrateThreshold:
    def test_median_at_alpha_half(self):
        g = p2()
        det = Detector("energy")
        threshold = calibrate_threshold(det, g, sigma=1.0, alpha=0.5, reps=200, seed=5)
        # reconstruct the null statistics from the documented streams
        stats = np.sort(
            [energy_stat(1.0 * replicate_rng(5, r).standard_normal(2)) for r in range(200)]
        )
        assert threshold == stats[math.ceil(0.5 * 200) - 1]

    def test_deterministic_bit_for_bit(self):
        g = gen_lattice(3)
        det = Detector("energy")
        args = dict(sigma=2.0, alpha=0.1, reps=300, seed=99)
        assert calibrate_threshold(det, g, **args) == calibrate_threshold(det, g, **args)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_block_size_changes_only_sss_rounding(self, monkeypatch, rows):
        g = gen_lattice(6)
        args = dict(sigma=1.0, alpha=0.2, reps=120, seed=3)
        baselines = [Detector(kind) for kind in ("energy", "edge", "glr_unconstrained")]
        sss_det = Detector("sss", rho=1.0)
        default = [calibrate_threshold(det, g, **args) for det in baselines + [sss_det]]
        monkeypatch.setattr(detectors, "_BLOCK_ENTRIES", rows * g.n)
        blocked = [calibrate_threshold(det, g, **args) for det in baselines + [sss_det]]
        assert blocked[:3] == default[:3]
        assert blocked[3] == pytest.approx(default[3], rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            calibrate_threshold(Detector("energy"), p2(), 1.0, alpha, 100, 0)

    def test_rejects_small_reps(self):
        with pytest.raises(ValueError, match="reps"):
            calibrate_threshold(Detector("energy"), p2(), 1.0, 0.1, 99, 0)

    def test_null_energy_moments_match_chi_square(self):
        # under the null the energy statistic is chi^2 with n-1 degrees of freedom
        g = gen_lattice(10)  # n = 100
        draws = 10_000
        stats = np.array(
            [energy_stat(replicate_rng(1234, r).standard_normal(100)) for r in range(draws)]
        )
        dof = 99
        assert abs(stats.mean() - dof) <= 4 * math.sqrt(2 * dof / draws)
        assert abs(stats.var() - 2 * dof) <= 0.15 * 2 * dof

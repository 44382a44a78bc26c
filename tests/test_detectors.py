"""Detector statistics, their shared invariances, and Monte Carlo calibration."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphscan import (
    Cluster,
    Detector,
    EmptyClassError,
    ExperimentConfig,
    Graph,
    boundary_weight,
    build_graph,
    calibrate_threshold,
    cut_sparsity,
    edge_stat,
    energy_stat,
    gen_bbt,
    gen_kron_multiscale,
    gen_lattice,
    glr_exact,
    glr_unconstrained,
    graph_spectrum,
    laplacian,
    replicate_rng,
    run_roc,
    scale_weights,
    sss,
    sss_stat,
)
from graphscan import detectors
from graphscan.detectors import DETECTOR_KINDS, RHO_KINDS
from graphscan.graphs import _cut_weights
from graphscan.rng import _replicate_streams
from helpers import draw_rho, glr_brute_force, random_connected_graph


def p2():
    return build_graph(2, [(0, 1, 1.0)])


def k3():
    return build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def detector(kind):
    """A detector of this kind, with rho 1 if it takes one."""
    return Detector(kind, rho=1.0 if kind in RHO_KINDS else None)


class TestEnergyStat:
    def test_centered_pair(self):
        assert energy_stat(np.array([1.0, -1.0])) == pytest.approx(2.0)

    def test_constant_is_zero(self):
        assert energy_stat(np.full(7, 3.0)) == pytest.approx(0.0, abs=1e-24)

    def test_already_centered_triple(self):
        assert energy_stat(np.array([2.0, 0.0, -2.0])) == pytest.approx(8.0)

    @pytest.mark.parametrize("function, kind", [(energy_stat, "energy"), (glr_unconstrained, "glr_unconstrained")])
    def test_one_off_calls_score_the_row_alone(self, function, kind):
        # the graph-free functions use no graph, and equal any graph's one-row block bit for bit
        rng = np.random.default_rng(2)
        for g in (build_graph(9, []), gen_lattice(3), gen_bbt(2), k3()):
            for scale in (1e-150, 1.0, 1e150):
                y = scale * rng.standard_normal(g.n)
                assert function(y) == Detector(kind).statistics(g, y[None])[0]
        for y in ([4.0], np.ones(1)):
            with pytest.raises(ValueError, match="^need at least two vertices$"):
                function(y)


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

    def test_connected_class_needs_both_sides_connected(self):
        # on the path 0-1-2-3, {0, 3} scores 4 but is not connected; of the bipartitions into
        # two connected paths, {0} | {1, 2, 3} and {0, 1, 2} | {3} score 4/3 and {0, 1} | {2, 3} 0
        g, y = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]), np.array([1.0, -1.0, -1.0, 1.0])
        assert glr_exact(g, y, 10.0) == pytest.approx(4.0, rel=1e-15)
        assert glr_exact(g, y, 10.0, require_connected=True) == pytest.approx(4.0 / 3.0, rel=1e-15)

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

    def test_every_cluster_is_in_its_own_rho_class(self):
        # y = 100 on C scores C's own GLR, which no other cluster but its complement reaches,
        # so glr_exact at rho = cut_sparsity(g, C) reads it exactly when C is in the class
        rng = np.random.default_rng(0)
        for _ in range(300):
            g = random_connected_graph(rng, max_n=10, min_n=5)
            g = Graph(g.n, g.eu, g.ev, rng.uniform(0.1, 3.0, g.num_edges()))
            k = int(rng.integers(1, g.n))
            members = rng.choice(g.n, size=k, replace=False)
            y = np.zeros(g.n)
            y[members] = 100.0
            rho = cut_sparsity(g, Cluster(frozenset(members.tolist())))
            assert glr_exact(g, y, rho) == pytest.approx(1e4 * k * (g.n - k) / g.n, rel=1e-9)

    def test_joint_scaling_of_weights_and_rho_keeps_the_class(self):
        # n * cut overflowed first: at weights 1e307 every cut sparsity read inf and the class was
        # empty. rho 2.1 lies between the 3x3 grid's cut sparsities 2.0 and 2.25, away from all
        g, y, rho = gen_lattice(3), np.random.default_rng(0).standard_normal(9), 2.1
        expected, corner = glr_exact(g, y, rho), Cluster(frozenset({0}))
        for k in range(-300, 308):
            scaled = scale_weights(g, 10.0**k)
            assert glr_exact(scaled, y, rho * 10.0**k) == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert cut_sparsity(scaled, corner) / 10.0**k == pytest.approx(2.25, rel=1e-12, abs=0.0)

    def test_block_cut_weights_match_boundary_weight(self):
        # graphs of up to about 170 edges, past the 128 terms where numpy's pairwise sum splits
        rng = np.random.default_rng(6)
        for _ in range(40):
            g = random_connected_graph(rng, max_n=30, min_n=3)
            g = Graph(g.n, g.eu, g.ev, rng.uniform(0.1, 3.0, g.num_edges()))
            rows = (rng.random((int(rng.integers(1, 51)), g.n)) < rng.random()).astype(float)
            rows[:, 0], rows[:, 1] = 1.0, 0.0  # nonempty and proper
            cuts, shift = _cut_weights(g, rows)
            assert shift == 0  # weights in range are summed as they are
            for row, cut in zip(rows, cuts):
                lone = boundary_weight(g, Cluster(frozenset(np.flatnonzero(row).tolist())))
                assert cut.tobytes() == np.float64(lone).tobytes()

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

    def test_adjacency_is_built_once_per_call(self, monkeypatch):
        # five rows of gen_bbt(3) enumerate its 16383 bipartitions in two batches
        g = gen_bbt(3)
        y = np.random.default_rng(4).standard_normal((5, g.n))
        det = Detector("glr_exact", rho=1.0, require_connected=True)
        expected = det.statistics(g, y)
        built = []
        monkeypatch.setattr(detectors, "laplacian", lambda h: built.append(h) or laplacian(h))
        assert det.statistics(g, y).tobytes() == expected.tobytes()
        assert len(built) == 1

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


class TestProperties:
    """Properties of the statistics on random connected weighted graphs."""

    @staticmethod
    def draw(seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, min_n=3)
        return rng, g, rng.standard_normal(g.n), draw_rho(rng, graph_spectrum(g).eigenvalues)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_sss_lies_between_zero_and_energy(self, seed):
        _, g, y, rho = self.draw(seed)
        assert 0.0 <= sss_stat(g, y, rho) <= energy_stat(y) * (1.0 + 1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_relabelling_vertices_changes_no_statistic(self, seed):
        rng, g, y, rho = self.draw(seed)
        label = rng.permutation(g.n)  # vertex v becomes label[v]
        relabelled = build_graph(g.n, [(label[u], label[v], w) for u, v, w in g.edges])
        moved = np.empty(g.n)
        moved[label] = y
        for a, b in [
            (sss_stat(g, y, rho), sss_stat(relabelled, moved, rho)),
            (energy_stat(y), energy_stat(moved)),
            (edge_stat(g, y), edge_stat(relabelled, moved)),
            (glr_unconstrained(y), glr_unconstrained(moved)),
        ]:
            assert b == pytest.approx(a, rel=1e-12, abs=0.0)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_glr_exact_matches_brute_force(self, seed):
        _, g, y, rho = self.draw(seed)
        for connected in (False, True):
            try:
                expected = glr_brute_force(g, y, rho, require_connected=connected)
            except ValueError:
                with pytest.raises(EmptyClassError):
                    glr_exact(g, y, rho, require_connected=connected)
                continue
            assert glr_exact(g, y, rho, require_connected=connected) == pytest.approx(expected, rel=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-100, 100))
    def test_sss_scales_with_the_square(self, seed, k):
        _, g, y, rho = self.draw(seed)
        scale = 10.0**k
        assert sss_stat(g, scale * y, rho) == pytest.approx(scale**2 * sss_stat(g, y, rho), rel=1e-12, abs=0.0)


class TestDetector:
    def test_rho_must_not_be_a_bool(self):
        y = np.arange(7.0)
        for call in (
            lambda: Detector("sss", rho=True),
            lambda: Detector("glr_exact", rho=True),
            lambda: sss_stat(gen_bbt(2), y, True),
            lambda: sss(graph_spectrum(gen_bbt(2)), y, True),
        ):
            with pytest.raises(ValueError, match="rho must be a number, got True"):
                call()

    def test_require_connected_must_be_a_bool(self):
        # the string "no" used to be taken as true, restricting glr_exact to connected clusters
        for good in (False, True):
            assert Detector("glr_exact", rho=1.0, require_connected=good).require_connected is good
        for bad in ("no", 0, None):
            with pytest.raises(ValueError, match=f"require_connected must be a bool, got {bad!r}"):
                Detector("glr_exact", rho=1.0, require_connected=bad)

    @pytest.mark.parametrize("kind", sorted(set(DETECTOR_KINDS) - set(RHO_KINDS)))
    @pytest.mark.parametrize("rho", [True, "abc", -3.0, 1.0])
    def test_refuses_a_rho_its_statistic_does_not_read(self, kind, rho):
        with pytest.raises(ValueError, match=f"detector {kind!r} takes no rho"):
            Detector(kind, rho=rho)

    @pytest.mark.parametrize("kind", [kind for kind in DETECTOR_KINDS if kind != "glr_exact"])
    def test_require_connected_only_for_glr_exact(self, kind):
        with pytest.raises(ValueError, match="require_connected applies only to glr_exact"):
            Detector(kind, rho=1.0 if kind in RHO_KINDS else None, require_connected=True)
        assert detector(kind).require_connected is False

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
        det = detector(kind)
        with pytest.raises(ValueError, match="length 4, expected 15"):
            det.statistic(gen_bbt(3), np.arange(4.0))
        with pytest.raises(ValueError, match="length 4, expected 15"):
            det.statistics(gen_bbt(3), np.zeros((3, 4)))

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    @pytest.mark.parametrize("shape", [(15,), (1, 1, 15)])
    def test_block_must_be_two_dimensional(self, kind, shape):
        with pytest.raises(ValueError, match="expected a block of observation rows"):
            detector(kind).statistics(gen_bbt(3), np.zeros(shape))

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_every_kind_rejects_a_one_vertex_graph(self, kind):
        with pytest.raises(ValueError, match="two vertices"):
            detector(kind).statistic(build_graph(1, []), np.zeros(1))


class TestBlockStatistics:
    @pytest.mark.parametrize(
        "g",
        [k3(), gen_lattice(4, periodic=True), gen_bbt(3), gen_kron_multiscale(gen_bbt(1), 2)],
        ids=["dense", "torus", "tree", "tree-product"],
    )
    def test_empty_block_scores_to_nothing(self, g):
        empty = np.empty((0, g.n))
        assert graph_spectrum(g).project(empty).shape == (0, g.n - 1)
        for kind in DETECTOR_KINDS:
            assert detector(kind).statistics(g, empty).shape == (0,)

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

    def test_energy_block_matches_row_by_row_on_long_rows(self):
        rng = np.random.default_rng(29)
        det = Detector("energy")
        for n, rows, scale in itertools.product((3, 255, 4096, 10007), (1, 2, 6), (1e-150, 1.0, 1e150)):
            y = scale * rng.standard_normal((rows, n))
            path = Graph(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))
            assert det.statistics(path, y).tolist() == [energy_stat(row) for row in y]

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


class TestOutOfRange:
    """A constant row scores 0 at any scale, and a value outside the normal doubles is refused, for every kind."""

    @pytest.mark.parametrize("level", [0.1, -3.7, 1e308, -1.7e308, 2.0**-1074])
    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_constant_rows_score_zero(self, kind, level):
        # 0.1 used to centre to about -2.8e-17 and score up to 1.6e-31, and
        # 1e308 to overflow its mean
        g = gen_bbt(3)
        y = np.vstack([np.full(g.n, level), np.random.default_rng(5).standard_normal(g.n)])
        values = detector(kind).statistics(g, y)
        assert values[0] == 0.0 and values[1] > 0.0
        assert detector(kind).statistic(g, y[0]) == 0.0

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_overflowing_value_is_refused(self, kind):
        g = gen_bbt(3)
        y = np.where(np.arange(g.n) % 2 == 0, 1.7e308, -1.7e308)
        with pytest.raises(ValueError, match="overflows"):
            detector(kind).statistic(g, y)

    @pytest.mark.parametrize("scale", [1e-200, 1e-310])
    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_underflowing_value_is_refused(self, kind, scale):
        g = gen_bbt(3)
        y = scale * np.random.default_rng(5).standard_normal(g.n)
        if kind == "edge" and scale == 1e-200:
            # a difference of degree one stays a normal double
            assert detector(kind).statistic(g, y) == pytest.approx(1e-200 * edge_stat(g, y / scale), rel=1e-14)
        else:
            with pytest.raises(ValueError, match="underflows"):
                detector(kind).statistic(g, y)

    def test_glr_exact_can_be_zero_on_a_row_that_is_not_constant(self):
        # on the 4-cycle at rho 2 only pairs of adjacent vertices are clusters,
        # and each sums to 0 here
        g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        assert glr_exact(g, np.array([1.0, -1.0, 1.0, -1.0]), 2.0) == 0.0

    def test_calibration_refuses_an_overflowing_statistic(self):
        # the energy threshold at sigma 1e200 used to be inf
        with pytest.raises(ValueError, match="overflows"):
            calibrate_threshold(Detector("energy"), gen_bbt(3), 1e200, 0.05, 100, 0)


class TestReplicateBlocks:
    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_each_row_is_its_replicate_stream(self, monkeypatch, rows):
        g = gen_lattice(5)
        if rows is not None:
            monkeypatch.setattr(detectors, "_BLOCK_ENTRIES", rows * g.n)
        rng = np.random.default_rng(6)
        shared, other = rng.standard_normal(g.n), rng.standard_normal(g.n)
        # one zero run for all; runs that straddle blocks of 7, a zero run and
        # a run of no replicates among them; a run per row; a scalar that is
        # not zero
        run_lists = [
            [(0.0, 30)],
            [(shared, 12), (np.zeros(g.n), 5), (shared, 0), (other, 13)],
            [(mean, 1) for mean in rng.standard_normal((30, g.n))],
            [(-1.5, 30)],
        ]
        for seed, sigma, runs in itertools.product((0, 7, 2**64 + 3, -5), (1.0, 2.5), run_lists):
            drawn = np.vstack([y.copy() for _, y in detectors._replicate_blocks(g, runs, sigma, seed)])
            means = [mean for mean, count in runs for _ in range(count)]
            expected = [means[r] + sigma * replicate_rng(seed, r).standard_normal(g.n) for r in range(30)]
            assert drawn.tobytes() == np.vstack(expected).tobytes()

    def test_streams_refuse_a_negative_index(self):
        with pytest.raises(ValueError, match="nonnegative"):
            next(_replicate_streams(0, [3, -1]))

    @pytest.mark.parametrize("index", [2**64, 2**70, -(2**70)])
    def test_streams_refuse_what_replicate_rng_refuses(self, index):
        for refused in (lambda: replicate_rng(0, index), lambda: next(_replicate_streams(0, [3, index]))):
            with pytest.raises(ValueError, match=f"below 2\\*\\*64, got {index}$"):
                refused()

    def test_streams_of_indices_beyond_2_to_the_63(self):
        indices = [2**63, 2**64 - 1]
        for seed in (0, 2**64 + 3, -5):
            drawn = [stream.standard_normal(3).tobytes() for stream in _replicate_streams(seed, indices)]
            assert drawn == [replicate_rng(seed, r).standard_normal(3).tobytes() for r in indices]


class TestEachInputCheckedOnce:
    """A run checks the graph once and each drawn block once, with the refusals a check per statistic gave."""

    @staticmethod
    def counted_observations(monkeypatch):
        """Replace ``detectors.observation`` by a wrapper that records each call in the list returned."""
        calls, check = [], detectors.observation

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(detectors, "observation", counted)
        return calls

    @staticmethod
    def blocks(g, reps):
        return math.ceil(reps / max(1, detectors._BLOCK_ENTRIES // g.n))

    def test_run_roc_checks_each_drawn_block_once(self, monkeypatch):
        config = ExperimentConfig(family="lattice", params={"p": 16}, rho=0.25, reps_null=300, reps_alt=300)
        assert len(config.detectors) == 4
        calls = self.counted_observations(monkeypatch)
        run_roc(config)
        assert len(calls) == self.blocks(gen_lattice(16), 600) == 3

    @pytest.mark.parametrize("det", [Detector("sss", rho=0.25), Detector("energy")], ids=["sss", "energy"])
    def test_calibration_checks_each_drawn_block_once(self, monkeypatch, det):
        g = gen_lattice(16)
        calls = self.counted_observations(monkeypatch)
        calibrate_threshold(det, g, 1.0, 0.05, 600, 1)
        assert len(calls) == self.blocks(g, 600) == 3

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_calibration_refuses_a_one_vertex_graph(self, kind):
        with pytest.raises(ValueError, match="^need at least two vertices$"):
            calibrate_threshold(detector(kind), build_graph(1, []), 1.0, 0.05, 100, 0)

    @pytest.mark.parametrize("kind", DETECTOR_KINDS)
    def test_calibration_refuses_a_disconnected_graph_for_the_kinds_that_use_edges(self, kind):
        g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        if kind in ("energy", "glr_unconstrained"):
            assert calibrate_threshold(detector(kind), g, 1.0, 0.05, 100, 0) > 0.0
        else:
            with pytest.raises(ValueError, match="^graph must be connected$"):
                calibrate_threshold(detector(kind), g, 1.0, 0.05, 100, 0)

    def test_run_roc_refuses_a_mean_plus_noise_that_overflows(self):
        # each of mu and sigma is finite, and so is the mean, but some draws overflow
        config = ExperimentConfig(
            family="lattice", params={"p": 3}, mu=1.79e308, delta=0.0, sigma=1e307, reps_null=5, reps_alt=5
        )
        with pytest.raises(ValueError, match="^observation contains NaN or infinite values$"):
            run_roc(config)


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

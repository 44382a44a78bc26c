"""Graph construction, Laplacians, cut sparsity, generators, and edge-list files."""
import hashlib
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphscan import (
    Cluster,
    EmptyClassError,
    Graph,
    boundary_weight,
    build_graph,
    cut_sparsity,
    gen_bbt,
    gen_kron_multiscale,
    gen_lattice,
    glr_exact,
    graph_spectrum,
    is_connected,
    kronecker_product,
    laplacian,
    read_edge_list,
    scale_weights,
    two_triangles,
    write_edge_list,
)
from graphscan.graphs import _EdgeError
from helpers import (
    edge_refusal_lexsort,
    gen_bbt_loop,
    gen_kron_multiscale_loop,
    gen_lattice_loop,
    kronecker_product_loop,
    neighbors,
    random_connected_graph,
    scale_weights_loop,
)


def path2():
    return build_graph(2, [(0, 1, 1.0)])


def triangle():
    return build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def four_cycle():
    return build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])


class TestBuildGraph:
    def test_single_edge(self):
        g = path2()
        assert g.n == 2
        assert neighbors(g, 0) == ((1, 1.0),)

    def test_triangle(self):
        g = triangle()
        assert g.num_edges() == 3
        assert all(len(neighbors(g, v)) == 2 for v in range(3))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(2, [(0, 0, 1.0)])

    def test_rejects_duplicate_pair_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_graph(3, [(0, 1, 1.0), (1, 0, 2.0)])

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), "2.5", True, 1 + 0j])
    def test_rejects_bad_weight(self, weight):
        with pytest.raises(ValueError, match="weight"):
            build_graph(2, [(0, 1, weight)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph(2, [(0, 2, 1.0)])

    def test_rejects_an_id_beyond_int64_that_numpy_stores_as_an_object(self):
        # numpy stores 2**70 with object dtype, which has no finiteness or rounding ufuncs
        with pytest.raises(_EdgeError, match=r"^edge \(0,1180591620717411303424\) out of range for n=3$") as info:
            Graph(3, [0], [2**70], [1.0])
        assert info.value.index == 0

    def test_rejects_an_unsigned_id_beyond_int64(self):
        # int64 cannot hold 2**63 + 5, whatever the vertex count, and would store it negative
        ids = np.array([2**63 + 5], dtype=np.uint64)
        with pytest.raises(_EdgeError, match=rf"^edge \({2**63 + 5},0\) out of range for n={2**64}$"):
            Graph(2**64, ids, np.zeros(1, dtype=np.uint64), [1.0])

    def test_rejects_bool_ids(self):
        with pytest.raises(_EdgeError, match=r"^edge \(False,True\) has a non-integer vertex id$"):
            Graph(3, [False], [True], [1.0])

    @pytest.mark.parametrize("bad", ["1", None])
    def test_rejects_non_numeric_ids(self, bad):
        with pytest.raises(_EdgeError, match=rf"^edge \(1,{bad}\) has a non-integer vertex id$") as info:
            Graph(3, [0, 1], [1, bad], [1.0, 1.0])
        assert info.value.index == 1

    @pytest.mark.parametrize("bool_id", [True, np.True_])
    def test_rejects_a_bool_among_integer_ids(self, bool_id):
        # numpy stores [True, 2] as the integers [1, 2]
        with pytest.raises(_EdgeError, match=r"^edge \(True,2\) has a non-integer vertex id$") as info:
            Graph(3, [bool_id, 2], [2, 0], [1.0, 1.0])
        assert info.value.index == 0
        with pytest.raises(_EdgeError, match=r"^edge \(0,True\) has a non-integer vertex id$"):
            Graph(3, (0,), (bool_id,), (1.0,))

    @pytest.mark.parametrize("w, shown", [([True], "True"), (["1.5"], "'1.5'"), ([1 + 0j], r"\(1\+0j\)")])
    def test_rejects_weights_that_are_not_numbers(self, w, shown):
        # numpy read a bool as 1.0 and text as the number it spells, and refused a complex weight by TypeError
        with pytest.raises(_EdgeError, match=rf"^edge \(0,1\) has non-numeric weight {shown}$"):
            Graph(2, [0], [1], w)

    def test_a_weight_that_is_not_a_number_is_named_in_edge_order(self):
        with pytest.raises(_EdgeError, match=r"^self-loop at vertex 1$"):
            Graph(3, [0, 1, 0], [1, 1, 2], [1.0, 1.0, "x"])
        with pytest.raises(_EdgeError, match=r"^edge \(0,2\) has non-numeric weight 'x'$") as info:
            Graph(3, [0, 1, 0, 2], [1, 2, 2, 2], [1.0, 1.0, "x", 1.0])
        assert info.value.index == 2

    def test_unsigned_ids_next_to_signed_ones_stay_exact(self):
        # a stacked table of the two columns took float64 and rounded 2**53 + 1 to 2**53
        g = Graph(2**54, np.array([2**53 + 1], dtype=np.uint64), np.array([0]), [1.0])
        assert g.eu[0] == 2**53 + 1 and g.eu.dtype == g.ev.dtype == np.int64

    def test_integer_ids_next_to_whole_floats_stay_exact(self):
        g = Graph(2**54, np.array([2**53 + 1, 3]), np.array([0.0, 2.0]), [1.0, 1.0])
        assert g.edges == ((2**53 + 1, 0, 1.0), (3, 2, 1.0))

    def test_rejects_a_text_id_next_to_integer_ids(self):
        with pytest.raises(_EdgeError, match=r"^edge \(a,2\) has a non-integer vertex id$") as info:
            Graph(3, np.array([0, "a"], dtype=object), np.array([1, 2]), [1.0, 1.0])
        assert info.value.index == 1

    def test_object_ids_within_int64_are_kept(self):
        ids = np.array([0, 2**53 + 1], dtype=object), np.array([2**53, 1], dtype=object)
        g = Graph(2**54, *ids, [1.0, 2.0])
        assert g.eu.dtype == np.int64 and g.edges == ((0, 2**53, 1.0), (2**53 + 1, 1, 2.0))

    def test_keeps_ids_beyond_the_doubles(self):
        # a float64 table rounded 2**53 + 1 to 2**53, which made the edge a self-loop
        g = build_graph(2**54, [(2**53 + 1, 2**53, 1.0)])
        assert g.edges == ((2**53 + 1, 2**53, 1.0),)

    def test_rejects_non_integer_vertex_id(self):
        with pytest.raises(ValueError, match=r"^edge \(0,1\.5\) has a non-integer vertex id$"):
            build_graph(3, [(0, 1.5, 1.0), (1, 2, 1.0)])

    def test_rejects_non_integer_vertex_count(self):
        with pytest.raises(ValueError, match="vertex count must be an integer, got 2.5"):
            build_graph(2.5, [(0, 1, 1.0)])
        assert build_graph(np.int64(2), [(0, 1, 1.0)]).n == 2

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1, 1.0), (2, 1, 1.0), (1, 2, 0.0), (0, 3, 1.0)], "duplicate edge (1,2)"),
            ([(0, 1, 1.0), (1, 2, -1.0), (0, 5, 1.0)], "edge (1,2) has non-positive weight -1.0"),
            ([(0, 1, 1.0), (2, 2, 1.0), (0, 1, 1.0)], "self-loop at vertex 2"),
            ([(0, 1, float("nan")), (0, 7, 1.0)], "edge (0,1) has non-positive weight nan"),
            ([(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0)], "edge (-1,0) out of range for n=3"),
            ([(0, 1, 1.0), (1, 2, float("inf"))], "edge (1,2) has non-positive weight inf"),
        ],
    )
    def test_names_the_first_offending_edge(self, edges, message):
        # the edge-by-edge checks stopped at the first edge failing any check,
        # and reported the first check it failed
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_graph(3, edges)

    def test_rejects_edges_that_are_not_triples(self):
        with pytest.raises(ValueError, match="triples"):
            build_graph(3, [(0, 1), (1, 2)])

    def test_connectivity_predicate(self):
        assert is_connected(path2())
        assert is_connected(build_graph(1, []))
        assert not is_connected(build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)]))

    def test_connectivity_computed_once(self):
        g = path2()
        assert "_connected" not in vars(g)
        assert is_connected(g)
        assert vars(g)["_connected"] is True


# vertex counts around the int64 pair key: the largest n with n * n < 2**63, and 2**40 beyond it
_VERTEX_COUNTS = (1, 3, 6, 12, 3037000499, 2**40)
_TORUS = gen_lattice(5, periodic=True)


@st.composite
def planted_edges(draw):
    """(n, eu, ev, w) with integer or float ids, about one in twenty ids and weights a planted fault,
    and self-loops and pairs repeated in either orientation (a repeated pair may be invalid)."""
    n = draw(st.sampled_from(_VERTEX_COUNTS))
    dtype = draw(st.sampled_from((np.int64, np.float64) + ((np.int32,) if n < 2**31 else ())))
    bad_ids = [-1, n, n + 3] + ([math.nan, math.inf, -math.inf, 0.5, n - 0.5] if dtype is np.float64 else [])

    def vertex():
        return draw(st.sampled_from(bad_ids)) if draw(st.integers(0, 19)) == 0 else draw(st.integers(0, n - 1))

    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.integers(0, 7))
        if kind == 0 and pairs:
            u, v = draw(st.sampled_from(pairs))
            pairs.append((v, u) if draw(st.booleans()) else (u, v))
        elif kind == 1:
            pairs.append((vertex(),) * 2)
        else:
            pairs.append((vertex(), vertex()))
    weights = [
        draw(st.sampled_from((0.0, -1.0, math.nan, math.inf, -math.inf)))
        if draw(st.integers(0, 19)) == 0 else draw(st.sampled_from((1.0, 0.25, 3.5)))
        for _ in pairs
    ]
    eu, ev = np.array(pairs, dtype=dtype).T
    return n, eu, ev, np.array(weights)


class TestEdgeRefusals:
    @settings(max_examples=400)
    @given(planted_edges())
    @example((3, np.array([math.inf, math.inf]), np.array([0.0, 0.0]), np.ones(2)))  # a repeated invalid pair
    @example((2**40, np.array([2**40 - 1, 5]), np.array([5, 2**40 - 1]), np.ones(2)))
    # distinct pairs whose keys lo * n + hi agree modulo 2**64
    @example((2**40, np.array([5, 5 + 2**24]), np.array([2**30, 2**30]), np.ones(2)))
    # more edges than an insertion sort takes, so that only a stable sort marks each later copy
    @example((25, np.r_[_TORUS.eu, _TORUS.ev[[3, 20, 7]]], np.r_[_TORUS.ev, _TORUS.eu[[3, 20, 7]]], np.ones(53)))
    def test_matches_the_lexsort_reference(self, case):
        n, eu, ev, w = case
        expected = edge_refusal_lexsort(n, eu, ev, w)
        if expected is None:
            g = Graph(n, eu, ev, w)
            for got, want in ((g.eu, eu.astype(np.int64)), (g.ev, ev.astype(np.int64)), (g.w, w)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        else:
            with pytest.raises(_EdgeError) as info:
                Graph(n, eu, ev, w)
            assert (str(info.value), info.value.index) == expected


class TestEdgeArrays:
    @staticmethod
    def assert_same_arrays(g, ref):
        assert g.n == ref.n
        for got, want in ((g.eu, ref.eu), (g.ev, ref.ev), (g.w, ref.w)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_bbt_matches_edge_loop(self, depth):
        self.assert_same_arrays(gen_bbt(depth), gen_bbt_loop(depth))

    @pytest.mark.parametrize("periodic", [False, True])
    def test_lattice_matches_edge_loop(self, periodic):
        for p in range(3 if periodic else 2, 13):
            self.assert_same_arrays(gen_lattice(p, periodic), gen_lattice_loop(p, periodic))

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_kron_multiscale_matches_edge_loop(self, levels):
        base = two_triangles()
        self.assert_same_arrays(gen_kron_multiscale(base, levels), gen_kron_multiscale_loop(base, levels))

    def test_product_and_scaling_match_edge_loops(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            g1 = random_connected_graph(rng, max_n=7, min_n=1)
            g2 = random_connected_graph(rng, max_n=7, min_n=1)
            self.assert_same_arrays(kronecker_product(g1, g2), kronecker_product_loop(g1, g2))
            factor = float(rng.uniform(0.1, 10.0))
            self.assert_same_arrays(scale_weights(g2, factor), scale_weights_loop(g2, factor))

    def test_arrays_are_read_only_copies(self):
        eu, ev, w = np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0])
        g = Graph(3, eu, ev, w)
        eu[0], w[0] = 2, 5.0
        assert g.eu.tolist() == [0, 1] and g.w.tolist() == [1.0, 2.0]
        assert (g.eu.dtype, g.ev.dtype, g.w.dtype) == (np.int64, np.int64, np.float64)
        for array in (g.eu, g.ev, g.w):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_edges_view_gives_python_triples_in_order(self):
        g = build_graph(3, [(0, 1, 0.5), (2, 1, 2.0)])
        assert g.edges == ((0, 1, 0.5), (2, 1, 2.0))
        assert all(type(x) is t for edge in g.edges for x, t in zip(edge, (int, int, float)))

    def test_equal_content_is_equal_and_shares_the_spectrum(self):
        a, b = gen_bbt(7), gen_bbt(7)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert graph_spectrum(a) is graph_spectrum(b)

    def test_weight_edge_order_or_size_change_makes_unequal(self):
        g = gen_bbt(3)
        heavier = Graph(g.n, g.eu, g.ev, np.where(np.arange(g.num_edges()) == 4, 2.0, g.w))
        reordered = Graph(g.n, g.eu[::-1], g.ev[::-1], g.w)
        larger = Graph(g.n + 1, g.eu, g.ev, g.w)
        for other in (heavier, reordered, larger):
            assert other != g and g != other
        assert g != g.edges


class TestLaplacian:
    def test_path_two(self):
        np.testing.assert_array_equal(laplacian(path2()), [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle(self):
        expected = 3 * np.eye(3) - np.ones((3, 3))
        np.testing.assert_array_equal(laplacian(triangle()), expected)

    def test_weight_scales_linearly(self):
        g = build_graph(2, [(0, 1, 0.5)])
        np.testing.assert_array_equal(laplacian(g), [[0.5, -0.5], [-0.5, 0.5]])

    def test_symmetric_psd_zero_row_sums_on_generated_graphs(self):
        graphs = [
            gen_bbt(4),
            gen_lattice(5),
            gen_lattice(4, periodic=True),
            gen_kron_multiscale(two_triangles(), 2),
        ]
        for g in graphs:
            lap = laplacian(g)
            assert np.abs(lap - lap.T).max() == 0.0
            np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-10)
            assert np.linalg.eigvalsh(lap).min() >= -1e-10


class TestCutSparsity:
    def test_path_two_singleton(self):
        assert cut_sparsity(path2(), Cluster(frozenset({0}))) == 2.0

    def test_triangle_singleton(self):
        assert cut_sparsity(triangle(), Cluster(frozenset({0}))) == 3.0

    def test_four_cycle_adjacent_pair(self):
        # boundary of {0,1} by hand: edges (1,2) and (3,0) cross, so w = 2
        g = four_cycle()
        c = Cluster(frozenset({0, 1}))
        assert boundary_weight(g, c) == 2.0
        assert cut_sparsity(g, c) == 4 * 2.0 / (2 * 2)

    def test_rejects_full_cluster(self):
        with pytest.raises(ValueError, match="proper subset"):
            cut_sparsity(path2(), Cluster(frozenset({0, 1})))

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError, match="nonempty"):
            Cluster(frozenset())

    def test_matches_quadratic_form_ratio(self):
        # 1_C' L 1_C / (1_C' K 1_C) with K the centering projection
        rng = np.random.default_rng(42)
        for _ in range(200):
            g = random_connected_graph(rng)
            lap = laplacian(g)
            size = int(rng.integers(1, g.n))
            members = frozenset(int(v) for v in rng.choice(g.n, size=size, replace=False))
            indicator = np.zeros(g.n)
            indicator[list(members)] = 1.0
            numer = indicator @ lap @ indicator
            denom = indicator @ indicator - indicator.sum() ** 2 / g.n
            expected = numer / denom
            assert abs(cut_sparsity(g, Cluster(members)) - expected) <= 1e-12 * max(1.0, expected)

    def test_positive_on_connected_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_connected_graph(rng)
            members = frozenset({int(rng.integers(0, g.n))})
            assert cut_sparsity(g, Cluster(members)) > 0.0

    def test_weights_whose_cuts_overflow(self):
        # a 10-cycle of weights 1e308: five consecutive vertices cut 2e308, beyond the doubles,
        # and have cut sparsity 8e307 within them, the least of any cluster
        g = Graph(10, np.arange(10), (np.arange(10) + 1) % 10, np.full(10, 1e308))
        half, y = Cluster(frozenset(range(5))), np.r_[np.ones(5), np.zeros(5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sparsity = cut_sparsity(g, half)
            assert sparsity == pytest.approx(8e307, rel=1e-15, abs=0.0)
            for rho in (sparsity, 1e308):
                assert glr_exact(g, y, rho) == glr_exact(g, y, rho, require_connected=True) == 2.5
            with pytest.raises(EmptyClassError):
                glr_exact(g, y, np.nextafter(sparsity, 0.0))
            with pytest.raises(ValueError, match="^the boundary weight overflows: the edge weights are too large"):
                boundary_weight(g, half)
            with pytest.raises(ValueError, match="^the cut sparsity overflows: the edge weights are too large"):
                cut_sparsity(g, Cluster(frozenset({0})))  # 2e308 * 10/9


class TestGenBbt:
    def test_depth_one(self):
        g = gen_bbt(1)
        assert (g.n, g.num_edges()) == (3, 2)

    def test_depth_two_degree_multiset(self):
        g = gen_bbt(2)
        assert g.n == 7 and g.num_edges() == 6
        degrees = sorted(len(neighbors(g, v)) for v in range(7))
        assert degrees == [1, 1, 1, 1, 2, 3, 3]

    def test_depth_seven_size(self):
        assert gen_bbt(7).n == 255

    def test_rejects_depth_zero(self):
        with pytest.raises(ValueError):
            gen_bbt(0)

    def test_level_order_numbering(self):
        g = gen_bbt(3)
        assert (1, 1.0) in neighbors(g, 0) and (2, 1.0) in neighbors(g, 0)
        assert (7, 1.0) in neighbors(g, 3)  # child of 3 is 2*3+1


class TestGenLattice:
    def test_two_by_two_is_four_cycle(self):
        g = gen_lattice(2)
        assert (g.n, g.num_edges()) == (4, 4)
        # direct eigendecomposition of the 4x4 Laplacian
        eigs = np.linalg.eigvalsh(laplacian(g))
        np.testing.assert_allclose(eigs, [0.0, 2.0, 2.0, 4.0], atol=1e-12)

    def test_three_by_three_torus(self):
        g = gen_lattice(3, periodic=True)
        assert (g.n, g.num_edges()) == (9, 18)
        assert all(len(neighbors(g, v)) == 4 for v in range(9))

    def test_periodic_two_rejected(self):
        with pytest.raises(ValueError, match="^p must be >= 3, got 2$"):
            gen_lattice(2, periodic=True)

    def test_row_major_numbering(self):
        g = gen_lattice(3)
        assert (1, 1.0) in neighbors(g, 0) and (3, 1.0) in neighbors(g, 0)


class TestKroneckerProduct:
    def test_path_times_path_is_four_cycle(self):
        g = kronecker_product(path2(), path2())
        # hand enumeration: (0,1),(2,3) from the second factor, (0,2),(1,3) from the first
        assert g.n == 4
        pairs = {(min(u, v), max(u, v)) for u, v, _ in g.edges}
        assert pairs == {(0, 1), (2, 3), (0, 2), (1, 3)}
        assert all(w == 1.0 for _, _, w in g.edges)

    def test_single_vertex_identity(self):
        k1 = build_graph(1, [])
        g = random_connected_graph(np.random.default_rng(5))
        product = kronecker_product(k1, g)
        assert product.n == g.n
        assert sorted(product.edges) == sorted(g.edges)

    def test_edge_count_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g1 = random_connected_graph(rng, max_n=6)
            g2 = random_connected_graph(rng, max_n=6)
            product = kronecker_product(g1, g2)
            assert product.num_edges() == g1.n * g2.num_edges() + g2.n * g1.num_edges()

    def test_spectrum_additivity(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g1 = random_connected_graph(rng, max_n=6)
            g2 = random_connected_graph(rng, max_n=6)
            eigs = np.linalg.eigvalsh(laplacian(kronecker_product(g1, g2)))
            e1 = np.linalg.eigvalsh(laplacian(g1))
            e2 = np.linalg.eigvalsh(laplacian(g2))
            expected = np.sort((e1[:, None] + e2[None, :]).ravel())
            np.testing.assert_allclose(eigs, expected, atol=1e-9)


class TestKronMultiscale:
    def test_single_level_is_base(self):
        base = two_triangles()
        g = gen_kron_multiscale(base, 1)
        assert sorted(g.edges) == sorted(base.edges)

    def test_path_two_levels_spectrum(self):
        # eigendecomposition oracle: sums {a + b : a in {0, 1}, b in {0, 2}}
        g = gen_kron_multiscale(path2(), 2)
        assert g.n == 4
        eigs = np.linalg.eigvalsh(laplacian(g))
        np.testing.assert_allclose(eigs, [0.0, 1.0, 2.0, 3.0], atol=1e-12)

    def test_two_triangle_base_two_levels(self):
        g = gen_kron_multiscale(two_triangles(), 2)
        assert g.n == 36

    def test_rejects_disconnected_base(self):
        base = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match="connected"):
            gen_kron_multiscale(base, 2)

    def test_coarse_bisection_boundary_weight(self):
        # cutting on the first coordinate leaves boundary weight <= p / (p - 1)
        base = two_triangles()
        p = base.n
        g = gen_kron_multiscale(base, 2)
        block = p ** (2 - 1)
        half = Cluster(frozenset(v for v in range(g.n) if v // block < p // 2))
        assert boundary_weight(g, half) <= p**1 / (p - 1)

    def test_scale_weights_multiplies_every_edge(self):
        g = scale_weights(two_triangles(), 0.25)
        assert all(w == 0.25 for _, _, w in g.edges)


class TestEdgeListFile:
    def test_round_trip_bit_exact(self, tmp_path):
        g = build_graph(4, [(0, 1, 1 / 3), (1, 2, 1e-7), (2, 3, 2.0), (0, 3, 0.1)])
        path = tmp_path / "g.tsv"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.n == g.n and back.edges == g.edges
        write_edge_list(back, tmp_path / "g2.tsv")
        assert (tmp_path / "g2.tsv").read_bytes() == path.read_bytes()

    def test_round_trip_keeps_ids_beyond_the_doubles(self, tmp_path):
        g = Graph(2**54, [2**53 + 1], [0], [1.0])
        write_edge_list(g, tmp_path / "g.tsv")
        back = read_edge_list(tmp_path / "g.tsv")
        assert back == g and back.eu.tolist() == [2**53 + 1]

    def test_header_format(self, tmp_path):
        path = tmp_path / "g.tsv"
        write_edge_list(path2(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n=2"
        assert lines[1].split("\t") == ["0", "1", "1.0"]

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1\t1.0\n")
        with pytest.raises(ValueError, match="n="):
            read_edge_list(path)

    @pytest.mark.parametrize("line", ["1\tx\t1.0", "0\t1\theavy", "0\t1.5\t1.0"])
    def test_rejects_bad_number_naming_the_line(self, tmp_path, line):
        path = tmp_path / "bad.tsv"
        path.write_text(f"n=3\n0\t2\t1.0\n\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: "):
            read_edge_list(path)

    def test_rejects_invalid_edge_naming_the_line(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("n=3\n0\t1\t1.0\n\n1\t0\t1.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: duplicate edge \\(1,0\\)$"):
            read_edge_list(path)

    def test_rejects_bad_vertex_count_naming_the_header(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("\nn=0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: vertex count must be >= 1, got 0$"):
            read_edge_list(path)

    @pytest.mark.parametrize("header", ["n=x", "n=2.5", "n="])
    def test_rejects_non_integer_vertex_count(self, tmp_path, header):
        path = tmp_path / "bad.tsv"
        path.write_text(f"{header}\n0\t1\t1.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad vertex count"):
            read_edge_list(path)

    def test_rejects_malformed_edge_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("n=2\n0 1 1.0\n")
        with pytest.raises(ValueError, match="TAB"):
            read_edge_list(path)


class TestFactorRecord:
    @staticmethod
    def side(p, periodic):
        return build_graph(p, [(i, (i + 1) % p, 1.0) for i in range(p if periodic else p - 1)])

    @pytest.mark.parametrize("periodic", [False, True])
    def test_lattice_records_its_sides(self, periodic):
        side = self.side(5, periodic)
        assert gen_lattice(5, periodic)._factors == (side, side)

    def test_product_records_its_operands(self):
        a, b = two_triangles(), gen_lattice(3)
        assert kronecker_product(a, b)._factors == (a, b)
        g = gen_kron_multiscale(a, 3)
        assert len(g._factors) == 2 and len(g._factors[0]._factors) == 2 and g._factors[1] == a

    def test_other_graphs_record_nothing(self):
        for g in (gen_bbt(3), two_triangles(), gen_kron_multiscale(two_triangles(), 1), path2()):
            assert g._factors == ()

    def test_same_edges_without_the_record_are_unequal(self, tmp_path):
        g = gen_lattice(4, periodic=True)
        write_edge_list(g, tmp_path / "g.tsv")
        back = read_edge_list(tmp_path / "g.tsv")
        assert back.edges == g.edges
        assert back != g and g != back
        assert back == build_graph(g.n, g.edges)


class TestPickle:
    @pytest.mark.parametrize(
        "make",
        [lambda: gen_bbt(3), lambda: gen_lattice(4, periodic=True), lambda: gen_kron_multiscale(two_triangles(), 3)],
        ids=["bbt3", "torus4", "kron3"],
    )
    def test_round_trip_rebuilds_and_revalidates(self, make):
        g = make()
        hash(g)
        back = pickle.loads(pickle.dumps(g))
        assert "_digest" not in vars(back)  # recomputed, not carried across processes
        assert back == g and hash(back) == hash(g)
        assert back._factors == g._factors
        for array in (back.eu, back.ev, back.w):
            assert not array.flags.writeable

    def test_invalid_arrays_are_refused(self):
        g = gen_bbt(2)
        object.__setattr__(g, "ev", g.eu.copy())
        with pytest.raises(ValueError, match="self-loop"):
            pickle.loads(pickle.dumps(g))

    def test_inconsistent_factors_are_refused(self):
        g = gen_lattice(3)
        object.__setattr__(g, "_factors", (path2(), path2()))
        with pytest.raises(ValueError, match="factors give 4 vertices"):
            pickle.loads(pickle.dumps(g))


class TestEdgeListGolden:
    # SHA-256 of the edge-list files: a change means the edges were reordered,
    # reweighted or formatted differently
    @pytest.mark.parametrize(
        "make, digest",
        [
            (lambda: gen_bbt(7), "5d31a7c07d4893d113f173357df865ba9cc5686792cee8bf2c5cb835b9a01e7c"),
            (lambda: gen_lattice(16), "7cda0161ace391176faf1eae13675785fb2c008d3a0271843d1f1b42e1cb73ee"),
            (
                lambda: gen_lattice(64, periodic=True),
                "51cca168ef62e64b62b047dbf27c03422321edb60a2e78613cea494a985bbae2",
            ),
            (
                lambda: gen_kron_multiscale(two_triangles(), 3),
                "b30950332c145c46ed930f9ad76e7beca0ee839674cf11f2579c37546cc0d575",
            ),
        ],
        ids=["bbt7", "grid16", "torus64", "kron3"],
    )
    def test_edge_list_digest(self, tmp_path, make, digest):
        path = tmp_path / "g.tsv"
        write_edge_list(make(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestRefusedArguments:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: Graph(3, [0, 1], [1, 2], [1.0]), "equal length"),
            (lambda: Graph(3, [0], [1, 2], [1.0]), "equal length"),
            (lambda: Cluster(frozenset({-1, 2})), "negative vertex id"),
            (lambda: boundary_weight(gen_bbt(1), Cluster(frozenset({3}))), "outside the graph"),
            (lambda: scale_weights(gen_bbt(2), 0.0), "scale factor must be positive"),
            (lambda: scale_weights(gen_bbt(2), float("nan")), "scale factor must be positive"),
            (lambda: gen_kron_multiscale(two_triangles(), 0), "levels must be >= 1"),
        ],
        ids=["ragged_arrays", "ragged_ids", "negative_member", "member_outside", "zero_scale", "nan_scale", "zero_levels"],
    )
    def test_refused(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

"""Graph construction, Laplacians, cut sparsity, generators, and edge-list files."""
import numpy as np
import pytest

from graphscan import (
    Cluster,
    boundary_weight,
    build_graph,
    cut_sparsity,
    gen_bbt,
    gen_kron_multiscale,
    gen_lattice,
    is_connected,
    kronecker_product,
    laplacian,
    read_edge_list,
    scale_weights,
    two_triangles,
    write_edge_list,
)
from helpers import random_connected_graph


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
        assert g.neighbors(0) == ((1, 1.0),)

    def test_triangle(self):
        g = triangle()
        assert g.num_edges() == 3
        assert all(len(g.neighbors(v)) == 2 for v in range(3))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(2, [(0, 0, 1.0)])

    def test_rejects_duplicate_pair_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_graph(3, [(0, 1, 1.0), (1, 0, 2.0)])

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan")])
    def test_rejects_bad_weight(self, weight):
        with pytest.raises(ValueError, match="weight"):
            build_graph(2, [(0, 1, weight)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph(2, [(0, 2, 1.0)])

    def test_connectivity_predicate(self):
        assert is_connected(path2())
        assert is_connected(build_graph(1, []))
        assert not is_connected(build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)]))

    def test_connectivity_computed_once(self):
        g = path2()
        assert "_connected" not in vars(g)
        assert is_connected(g)
        assert vars(g)["_connected"] is True


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


class TestGenBbt:
    def test_depth_one(self):
        g = gen_bbt(1)
        assert (g.n, g.num_edges()) == (3, 2)

    def test_depth_two_degree_multiset(self):
        g = gen_bbt(2)
        assert g.n == 7 and g.num_edges() == 6
        degrees = sorted(len(g.neighbors(v)) for v in range(7))
        assert degrees == [1, 1, 1, 1, 2, 3, 3]

    def test_depth_seven_size(self):
        assert gen_bbt(7).n == 255

    def test_rejects_depth_zero(self):
        with pytest.raises(ValueError):
            gen_bbt(0)

    def test_level_order_numbering(self):
        g = gen_bbt(3)
        assert (1, 1.0) in g.neighbors(0) and (2, 1.0) in g.neighbors(0)
        assert (7, 1.0) in g.neighbors(3)  # child of 3 is 2*3+1


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
        assert all(len(g.neighbors(v)) == 4 for v in range(9))

    def test_periodic_two_rejected(self):
        with pytest.raises(ValueError, match="p >= 3"):
            gen_lattice(2, periodic=True)

    def test_row_major_numbering(self):
        g = gen_lattice(3)
        assert (1, 1.0) in g.neighbors(0) and (3, 1.0) in g.neighbors(0)


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

    def test_rejects_malformed_edge_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("n=2\n0 1 1.0\n")
        with pytest.raises(ValueError, match="TAB"):
            read_edge_list(path)

"""Balanced-binary-tree spectra built from their level blocks, against dense eigendecompositions."""
import pickle
import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphscan import (
    Detector,
    Graph,
    build_graph,
    eig_sym,
    gen_bbt,
    graph_spectrum,
    kronecker_product,
    laplacian,
    scale_weights,
    sss,
    write_spectrum_csv,
)
from graphscan import detectors
from graphscan.spectral import DenseSpectrum, ProductSpectrum, TreeSpectrum, _sss_values
from helpers import dense_basis, draw_rho, sss_certificate

depths = st.integers(1, 9)
seeds = st.integers(0, 2**32 - 1)


@lru_cache(maxsize=None)
def dense_spectrum(depth: int) -> DenseSpectrum:
    return eig_sym(laplacian(gen_bbt(depth)))


def observations(rng: np.random.Generator, n: int) -> np.ndarray:
    y = rng.standard_normal((3, n))
    y[0] += 2.0 * (np.arange(n) < n // 3)  # a cluster signal, so case "c" shows up
    return y


class TestAgainstDense:
    @pytest.mark.parametrize("depth", range(1, 10))
    def test_eigenvalues_and_groups(self, depth):
        tree, dense = graph_spectrum(gen_bbt(depth)), dense_spectrum(depth)
        assert isinstance(tree, TreeSpectrum) and tree.n == 2 ** (depth + 1) - 1
        lam_max = float(dense.eigenvalues[-1])
        np.testing.assert_allclose(tree.eigenvalues, dense.eigenvalues, rtol=0.0, atol=1e-12 * lam_max)
        assert tree.order[0] == 0  # the constant vector leads the raw order
        assert tree.groups[0].size == dense.groups[0].size
        assert not tree.eigenvalues.flags.writeable and not tree.order.flags.writeable

    @settings(max_examples=30)
    @given(depth=depths, seed=seeds)
    def test_statistic_and_witness(self, depth, seed):
        g = gen_bbt(depth)
        tree, dense = graph_spectrum(g), dense_spectrum(depth)
        rng = np.random.default_rng(seed)
        y = observations(rng, g.n)
        rho = draw_rho(rng, dense.eigenvalues)
        np.testing.assert_allclose(_sss_values(tree, y, rho), _sss_values(dense, y, rho), rtol=1e-10, atol=0.0)
        for row in y:
            result = sss(tree, row, rho)
            assert result.value == pytest.approx(sss(dense, row, rho).value, rel=1e-10)
            assert abs(result.gap) <= 1e-10 * result.value
            feasible, primal, dual = sss_certificate(g, row, rho, result)
            assert feasible
            assert primal <= result.value * (1.0 + 1e-9)
            assert dual >= result.value * (1.0 - 1e-9)

    @settings(max_examples=30)
    @given(depth=depths, seed=seeds)
    def test_expand_inverts_project(self, depth, seed):
        tree = graph_spectrum(gen_bbt(depth))
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((4, tree.n))
        y -= y.mean(axis=1, keepdims=True)
        coeffs = tree.project(y)
        assert coeffs.shape == (4, tree.n - 1)
        np.testing.assert_allclose(tree.project(y[1]), coeffs[1], rtol=0.0, atol=1e-13 * np.abs(y).max())
        for row, c in zip(y, coeffs):
            np.testing.assert_allclose(tree.expand(c), row, rtol=0.0, atol=1e-12 * np.abs(row).max())
            np.testing.assert_allclose(c @ c, row @ row, rtol=1e-12)

    def test_basis_is_orthonormal_and_diagonalizes_the_laplacian(self):
        for depth in (1, 2, 5):
            g = gen_bbt(depth)
            tree, lap = graph_spectrum(g), laplacian(g)
            basis = dense_basis(tree)
            np.testing.assert_allclose(basis.T @ basis, np.eye(g.n), rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(lap @ basis, basis * tree.eigenvalues, rtol=0.0, atol=1e-12)

    def test_statistic_is_sss_value_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for depth in (3, 7):
            g = gen_bbt(depth)
            for _ in range(5):
                y = rng.standard_normal(g.n)
                rho = draw_rho(rng, graph_spectrum(g).eigenvalues)
                assert Detector("sss", rho=rho).statistic(g, y) == sss(graph_spectrum(g), y, rho).value


class TestProductOfTrees:
    def test_matches_the_dense_spectrum(self):
        g = kronecker_product(gen_bbt(2), gen_bbt(1))
        spec, dense = graph_spectrum(g), eig_sym(laplacian(g))
        assert isinstance(spec, ProductSpectrum)
        assert [type(f) for f in spec.factors] == [TreeSpectrum, TreeSpectrum]
        lam_max = float(dense.eigenvalues[-1])
        np.testing.assert_allclose(spec.eigenvalues, dense.eigenvalues, rtol=0.0, atol=1e-12 * lam_max)
        rng = np.random.default_rng(23)
        y = observations(rng, g.n)
        yc = y - y.mean(axis=1, keepdims=True)
        for rho in (0.25, 1.0, 3.0):
            np.testing.assert_allclose(_sss_values(spec, y, rho), _sss_values(dense, y, rho), rtol=1e-10, atol=0.0)
            for row in y:
                result = sss(spec, row, rho)
                feasible, primal, dual = sss_certificate(g, row, rho, result)
                assert feasible and primal <= result.value * (1.0 + 1e-9) and dual >= result.value * (1.0 - 1e-9)
        for row, c in zip(yc, spec.project(yc)):
            np.testing.assert_allclose(spec.expand(c), row, rtol=0.0, atol=1e-12)


class TestNoDenseWork:
    def test_graph_spectrum_never_builds_a_tree_laplacian(self, monkeypatch):
        seen = []
        monkeypatch.setattr(detectors, "laplacian", lambda g: seen.append(g.n) or laplacian(g))
        monkeypatch.setattr(detectors, "eig_sym", lambda m: seen.append(len(m)) or eig_sym(m))
        for depth in (1, 4, 9):
            detectors.graph_spectrum.cache_clear()
            assert graph_spectrum(gen_bbt(depth)).n == 2 ** (depth + 1) - 1
        detectors.graph_spectrum.cache_clear()
        graph_spectrum(kronecker_product(gen_bbt(3), gen_bbt(2)))
        assert seen == []

    def test_depth_fourteen_in_well_under_a_second(self):
        detectors.graph_spectrum.cache_clear()
        g = gen_bbt(14)
        y = np.random.default_rng(29).standard_normal(g.n)
        start = time.perf_counter()
        spec = graph_spectrum(g)
        result = sss(spec, y, 4.0 / g.n)
        elapsed = time.perf_counter() - start
        assert spec.n == 32767 and result.value > 0.0
        assert elapsed < 1.0

    @pytest.mark.parametrize("weight", [1e-3, 2.0, 1e9])
    def test_scaled_tree_stays_a_tree(self, weight):
        g = scale_weights(gen_bbt(5), weight)
        spec, dense = graph_spectrum(g), eig_sym(laplacian(g))
        assert g._depth == 5 and (g.w == weight).all() and isinstance(spec, TreeSpectrum)
        lam_max = float(dense.eigenvalues[-1])
        np.testing.assert_allclose(spec.eigenvalues, dense.eigenvalues, rtol=0.0, atol=1e-12 * lam_max)
        np.testing.assert_array_equal(spec.project(np.eye(g.n)), graph_spectrum(gen_bbt(5)).project(np.eye(g.n)))

    def test_scaled_depth_ten_sets_up_in_well_under_50_ms(self):
        g = scale_weights(gen_bbt(10), 2.0)
        detectors.graph_spectrum.cache_clear()
        start = time.perf_counter()
        spec = graph_spectrum(g)
        elapsed = time.perf_counter() - start
        assert isinstance(spec, TreeSpectrum) and spec.n == 2047
        assert elapsed < 0.05

    def test_only_a_dense_spectrum_writes_a_basis(self, tmp_path):
        for name, g in (("tree", gen_bbt(2)), ("product", kronecker_product(gen_bbt(1), gen_bbt(1)))):
            values, vectors = tmp_path / f"{name}-e.csv", tmp_path / f"{name}-v.csv"
            with pytest.raises(ValueError, match="only a dense spectrum"):
                write_spectrum_csv(graph_spectrum(g), values, vectors_path=vectors)
            assert not values.exists() and not vectors.exists()
            write_spectrum_csv(graph_spectrum(g), values)
            assert len(values.read_text().splitlines()) == g.n


class TestTreeRecord:
    def test_equality_hash_and_pickle(self):
        g = gen_bbt(3)
        assert g._depth == 3 and g == gen_bbt(3) and hash(g) == hash(gen_bbt(3))
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g) and back._depth == 3
        assert isinstance(graph_spectrum(back), TreeSpectrum)

    def test_scaled_record(self):
        g = scale_weights(scale_weights(gen_bbt(3), 3.0), 0.1)
        assert (g.w == 3.0 * 0.1).all()
        assert g == scale_weights(scale_weights(gen_bbt(3), 3.0), 0.1) and hash(g) == hash(scale_weights(g, 1.0))
        assert g != gen_bbt(3) and scale_weights(gen_bbt(3), 1.0) == gen_bbt(3)
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g) and back.w.tobytes() == g.w.tobytes()
        assert isinstance(graph_spectrum(back), TreeSpectrum)
        copy = build_graph(g.n, g.edges)
        assert copy._depth == 0 and copy != g and isinstance(graph_spectrum(copy), DenseSpectrum)

    def test_record_of_another_weight_is_refused(self):
        tree = scale_weights(gen_bbt(3), 2.0)
        g = Graph(tree.n, tree.eu, tree.ev, np.r_[tree.w[:-1], 3.0])  # the last edge weighs 3, the others 2
        object.__setattr__(g, "_depth", 3)
        with pytest.raises(ValueError, match="not the unit-weight balanced binary tree of depth 3 scaled by 2.0"):
            pickle.loads(pickle.dumps(g))
        edgeless = Graph(15, (), (), ())
        object.__setattr__(edgeless, "_depth", 3)
        with pytest.raises(ValueError, match="of depth 3 scaled by 1.0"):
            pickle.loads(pickle.dumps(edgeless))

    def test_edge_list_copy_stays_dense(self):
        g = gen_bbt(3)
        copy = build_graph(g.n, g.edges)
        assert copy.edges == g.edges and copy._depth == 0
        assert copy != g and g != copy
        assert isinstance(graph_spectrum(copy), DenseSpectrum)

    def test_record_of_another_tree_is_refused(self):
        g = gen_bbt(3)
        object.__setattr__(g, "_depth", 2)
        with pytest.raises(ValueError, match="not the unit-weight balanced binary tree of depth 2"):
            pickle.loads(pickle.dumps(g))

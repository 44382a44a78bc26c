"""Factored spectra of Cartesian-product graphs against dense eigendecompositions."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphscan import (
    Detector,
    Spectrum,
    build_graph,
    calibrate_threshold,
    eig_sym,
    gen_kron_multiscale,
    gen_lattice,
    graph_spectrum,
    kronecker_product,
    laplacian,
    scale_weights,
    sss,
    two_triangles,
)
from graphscan import detectors
from graphscan.spectral import DenseSpectrum, _sss_values
from helpers import dense_basis, draw_rho, random_connected_graph, sss_certificate


def random_product(seed: int, count: int):
    """Product of ``count`` random connected graphs, nested left or right at random."""
    rng = np.random.default_rng(seed)
    graphs = [random_connected_graph(rng, max_n=7 if count == 2 else 5) for _ in range(count)]
    if count == 3 and rng.random() < 0.5:
        return kronecker_product(graphs[0], kronecker_product(graphs[1], graphs[2]))
    result = graphs[0]
    for g in graphs[1:]:
        result = kronecker_product(result, g)
    return result


seeds = st.integers(0, 2**32 - 1)
product_graphs = st.one_of(
    st.builds(random_product, seeds, st.integers(2, 3)),
    st.builds(gen_lattice, st.integers(2, 12)),
    st.builds(lambda p: gen_lattice(p, periodic=True), st.integers(3, 12)),
    st.builds(lambda levels: gen_kron_multiscale(two_triangles(), levels), st.integers(2, 3)),
)


class TestAgainstDense:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(g=product_graphs, seed=seeds)
    def test_eigenvalues_statistic_and_witness(self, g, seed):
        factored = graph_spectrum(g)
        assert len(factored.factors) >= 2
        dense = eig_sym(laplacian(g))
        lam_max = float(dense.eigenvalues[-1])
        np.testing.assert_allclose(factored.eigenvalues, dense.eigenvalues, rtol=0.0, atol=1e-12 * lam_max)

        rng = np.random.default_rng(seed)
        y = rng.standard_normal((3, g.n))
        y[0] += 2.0 * (np.arange(g.n) < g.n // 3)  # a cluster signal, so case "c" shows up
        rho = draw_rho(rng, dense.eigenvalues)
        np.testing.assert_allclose(
            _sss_values(factored, y, rho), _sss_values(dense, y, rho), rtol=1e-10, atol=0.0
        )
        for row in y:
            result = sss(factored, row, rho)
            assert result.value == pytest.approx(sss(dense, row, rho).value, rel=1e-10)
            feasible, primal, dual = sss_certificate(g, row, rho, result)
            assert feasible
            assert primal <= result.value * (1.0 + 1e-9)
            assert dual >= result.value * (1.0 - 1e-9)


class TestSpectrumMethods:
    def test_dense_projection_and_expansion_are_the_basis_products(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_connected_graph(rng)
            spec = eig_sym(laplacian(g))
            y = rng.standard_normal((4, g.n))
            z = rng.standard_normal(g.n - 1)
            assert np.array_equal(spec.project(y), (y @ spec.eigenvectors)[:, 1:])
            assert np.array_equal(spec.expand(z), spec.eigenvectors @ np.r_[0.0, z])
            assert np.array_equal(spec.order, np.arange(g.n))

    def test_factored_basis_projection_and_inverse(self):
        rng = np.random.default_rng(5)
        middle = random_connected_graph(rng, 5)
        g = kronecker_product(gen_lattice(3), kronecker_product(middle, gen_lattice(4, periodic=True)))
        spec = graph_spectrum(g)
        assert [factor.n for factor in spec.factors] == [3, 3, middle.n, 4, 4]
        vectors, lap = dense_basis(spec), laplacian(g)
        np.testing.assert_allclose(lap @ vectors, vectors * spec.eigenvalues, atol=1e-12 * spec.eigenvalues[-1])
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(g.n), atol=1e-12)
        y = rng.standard_normal((5, g.n))
        yc = y - y.mean(axis=1, keepdims=True)
        coeffs = spec.project(yc)
        np.testing.assert_allclose(coeffs, yc @ vectors[:, 1:], atol=1e-12)
        np.testing.assert_allclose(spec.project(yc[0]), coeffs[0], atol=1e-13)
        np.testing.assert_allclose(spec.expand(coeffs[1]), yc[1], atol=1e-12)
        z = rng.standard_normal(g.n - 1)
        np.testing.assert_allclose(spec.project(spec.expand(z)), z, atol=1e-12)

    def test_eigenvalues_are_the_stable_sorted_outer_sum(self):
        a, b = graph_spectrum(gen_lattice(4, periodic=True)), graph_spectrum(two_triangles())
        spec = Spectrum.product((a, b))
        sums = (a.eigenvalues[a.order.argsort()][:, None] + b.eigenvalues).ravel()
        assert np.array_equal(spec.order, np.argsort(sums, kind="stable"))
        assert np.array_equal(spec.eigenvalues, sums[spec.order])
        assert spec.order[0] == 0
        assert not spec.eigenvalues.flags.writeable and not spec.order.flags.writeable

    def test_statistic_is_sss_value_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for g in (gen_lattice(7), gen_lattice(8, periodic=True), gen_kron_multiscale(two_triangles(), 2)):
            for _ in range(5):
                y = rng.standard_normal(g.n)
                rho = draw_rho(rng, graph_spectrum(g).eigenvalues)
                assert Detector("sss", rho=rho).statistic(g, y) == sss(graph_spectrum(g), y, rho).value


class TestNoDenseWork:
    def test_graph_spectrum_never_builds_a_product_laplacian(self, monkeypatch):
        seen = []
        monkeypatch.setattr(detectors, "laplacian", lambda g: seen.append(g.n) or laplacian(g))
        products = (
            gen_lattice(9),
            gen_lattice(10, periodic=True),
            gen_kron_multiscale(two_triangles(), 3),
            kronecker_product(two_triangles(), gen_lattice(3)),
        )
        for g in products:
            detectors.graph_spectrum.cache_clear()
            seen.clear()
            assert graph_spectrum(g).n == g.n
            assert seen and max(seen) < g.n

    def test_scaled_product_keeps_its_factors(self, monkeypatch):
        g = gen_lattice(32, periodic=True)
        scaled = scale_weights(g, 2.5)
        assert scaled.eu.tobytes() == g.eu.tobytes() and scaled.ev.tobytes() == g.ev.tobytes()
        assert scaled.w.tobytes() == (g.w * 2.5).tobytes()
        assert scaled._factors == tuple(scale_weights(f, 2.5) for f in g._factors)
        seen = []
        monkeypatch.setattr(detectors, "laplacian", lambda g: seen.append(g.n) or laplacian(g))
        detectors.graph_spectrum.cache_clear()
        spec = graph_spectrum(scaled)
        assert seen == [32]  # the one scaled side, shared by both axes
        expected = 2.5 * graph_spectrum(g).eigenvalues
        np.testing.assert_allclose(spec.eigenvalues, expected, rtol=0.0, atol=1e-12 * expected[-1])
        nested = scale_weights(gen_kron_multiscale(two_triangles(), 3), 0.5)
        assert len(nested._factors[0]._factors) == 2

    def test_edge_list_graph_stays_dense(self):
        g = gen_lattice(4, periodic=True)
        copy = build_graph(g.n, g.edges)
        assert isinstance(graph_spectrum(copy), DenseSpectrum)
        assert len(graph_spectrum(g).factors) == 2

    def test_calibrate_on_a_128x128_torus(self):
        # a dense Laplacian alone would take 16384**2 * 8 bytes = 2 GiB
        g = gen_lattice(128, periodic=True)
        tracemalloc.start()
        try:
            threshold = calibrate_threshold(Detector("sss", rho=4.0 / 128), g, 1.0, 0.05, 100, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(threshold) and threshold > 0.0
        assert peak < 64 * 2**20

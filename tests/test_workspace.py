"""The per-thread workspace blocks are scored in: no stale data, no sharing, bounded size, no allocations."""
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from graphscan import (
    Detector,
    calibrate_threshold,
    gen_bbt,
    gen_kron_multiscale,
    gen_lattice,
    graph_spectrum,
    sss,
    two_triangles,
)
from graphscan import spectral
from graphscan.spectral import _BLOCK_ENTRIES, _WORKSPACE, _scaled_sums
from helpers import random_connected_graph

# one graph per way of holding the basis: a dense matrix, products of two and
# of three dense factors (the projection ends in a different buffer), a
# product of trees (whose first axis has trailing entries) and a tree
GRAPHS = {
    "dense": lambda: random_connected_graph(np.random.default_rng(3), max_n=30, min_n=20),
    "torus": lambda: gen_lattice(12, periodic=True),
    "kron-3": lambda: gen_kron_multiscale(two_triangles(), 3),
    "kron-of-trees": lambda: gen_kron_multiscale(gen_bbt(2), 2),
    "tree": lambda: gen_bbt(6),
}
DETECTORS = (Detector("sss", rho=0.5), Detector("glr_unconstrained"))


def scores(g, y):
    return [det.statistics(g, y).tobytes() for det in DETECTORS]


@pytest.mark.parametrize("name", GRAPHS)
def test_projection_in_the_workspace_matches_project(name):
    g = GRAPHS[name]()
    spec = graph_spectrum(g)
    y = np.random.default_rng(1).standard_normal((9, g.n))
    coeffs, exps, _ = _scaled_sums(spec, y)
    expected = spec.project(y - y.mean(axis=1, keepdims=True))
    assert np.array_equal(np.ldexp(coeffs, exps[:, None]), expected)


@pytest.mark.parametrize("name", GRAPHS)
def test_reused_buffers_leak_no_stale_data(name):
    g, other = GRAPHS[name](), gen_lattice(20, periodic=True)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, g.n))
    longer = rng.standard_normal((40, g.n))
    row = rng.standard_normal(g.n)
    first = scores(g, a)
    lone = sss(graph_spectrum(g), row, 0.5)
    scores(g, longer)
    scores(other, rng.standard_normal((60, other.n)))  # grows every buffer
    again = sss(graph_spectrum(g), row, 0.5)
    assert scores(g, a) == first
    assert (again.value, again.gap, again.witness.tobytes()) == (lone.value, lone.gap, lone.witness.tobytes())


def test_threads_scoring_at_once_get_their_sequential_values():
    graphs = [make() for make in GRAPHS.values()]
    rng = np.random.default_rng(8)
    blocks = [rng.standard_normal((30, g.n)) for g in graphs]
    calibrate = Detector("sss", rho=0.5)
    expected = [(scores(g, y), calibrate_threshold(calibrate, g, 1.0, 0.1, 100, 2)) for g, y in zip(graphs, blocks)]
    got, errors = [[] for _ in graphs], []

    def work(i):
        try:
            for _ in range(4):
                threshold = calibrate_threshold(calibrate, graphs[i], 1.0, 0.1, 100, 2)
                got[i].append((scores(graphs[i], blocks[i]), threshold))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(graphs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert got == [[e] * 4 for e in expected]


def test_buffers_stay_within_one_block_whatever_block_is_scored():
    sizes = {}

    def work():
        g = gen_lattice(12, periodic=True)
        big = np.random.default_rng(2).standard_normal((3 * _BLOCK_ENTRIES // g.n + 5, g.n))
        scores(g, big)
        calibrate_threshold(Detector("sss", rho=0.5), g, 1.0, 0.1, 1000, 4)
        sizes.update({role: buffer.size for role, buffer in _WORKSPACE.buffers.items()})

    thread = threading.Thread(target=work)  # a new thread starts with an empty workspace
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert set(sizes) == {"noise", "a", "b"}
    assert max(sizes.values()) <= _BLOCK_ENTRIES


def test_rows_longer_than_a_chunk_are_scored_one_at_a_time(monkeypatch):
    g = gen_lattice(8, periodic=True)
    y = np.random.default_rng(4).standard_normal((3, g.n))
    expected = scores(g, y)
    monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", g.n // 2)
    # one row per chunk; the SSS of a one-row block may differ in the last bits
    sss_values, glr_values = (det.statistics(g, y) for det in DETECTORS)
    np.testing.assert_allclose(sss_values, np.frombuffer(expected[0]), rtol=1e-12, atol=0.0)
    assert glr_values.tobytes() == expected[1]


def traced_peak(det, g, reps):
    """The most memory a steady-state ``calibrate_threshold`` call allocates at once, by tracemalloc."""
    calibrate_threshold(det, g, 1.0, 0.05, reps, 0)  # the spectrum, its groups and the workspace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        calibrate_threshold(det, g, 1.0, 0.05, reps, 1)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_calibration_allocates_less_than_half_a_megabyte():
    assert traced_peak(Detector("sss", rho=4.0 / 48), gen_lattice(48, periodic=True), 100) < 512 * 1024


def test_tree_calibration_keeps_its_level_sums_in_the_workspace():
    # 712 KB while each block's level sums and differences were new arrays
    assert traced_peak(Detector("sss", rho=4.0 / 255), gen_bbt(7), 1000) < 400 * 1024


def test_tree_level_sums_stay_within_one_block():
    sizes = {}

    def work():
        g = gen_bbt(9)
        big = np.random.default_rng(2).standard_normal((3 * _BLOCK_ENTRIES // g.n + 5, g.n))
        scores(g, big)
        calibrate_threshold(Detector("sss", rho=0.05), g, 1.0, 0.1, 300, 4)
        sizes.update({role: buffer.size for role, buffer in _WORKSPACE.buffers.items()})

    thread = threading.Thread(target=work)  # a new thread starts with an empty workspace
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert set(sizes) == {"noise", "a", "b", "tree"}
    assert max(sizes.values()) <= _BLOCK_ENTRIES

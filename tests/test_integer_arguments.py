"""Counts, sizes, ids and seeds must be integers: numpy integers pass, and a float or a bool is refused, not truncated."""
import re

import numpy as np
import pytest

from graphscan import (
    Cluster,
    Detector,
    Graph,
    SignalSpec,
    bbt_lambda2_bound,
    calibrate_threshold,
    canonical_cluster,
    gen_bbt,
    gen_kron_multiscale,
    gen_lattice,
    naive_bounds,
    noncentrality,
    replicate_rng,
    two_triangles,
)

KRON2 = gen_kron_multiscale(two_triangles(), 2)

# (call with the value under test, a valid integer value, the name a refusal gives)
CALLS = {
    "gen_bbt": (lambda v: gen_bbt(v), 2, "depth"),
    "gen_lattice": (lambda v: gen_lattice(v), 3, "p"),
    "gen_kron_multiscale": (lambda v: gen_kron_multiscale(two_triangles(), v), 1, "levels"),
    "cluster_id": (lambda v: Cluster(frozenset({v})), 1, "cluster vertex id"),
    "calibrate_reps": (lambda v: calibrate_threshold(Detector("energy"), gen_lattice(3), 1.0, 0.05, v, 1), 100, "reps"),
    "calibrate_seed": (lambda v: calibrate_threshold(Detector("energy"), gen_lattice(3), 1.0, 0.05, 100, v), 1, "seed"),
    "rng_seed": (lambda v: replicate_rng(v, 0).standard_normal(2).tolist(), 1, "seed"),
    "rng_index": (lambda v: replicate_rng(0, v).standard_normal(2).tolist(), 2, "replicate index"),
    "bbt_depth": (lambda v: canonical_cluster(gen_bbt(3), "bbt", depth=v), 3, "depth"),
    "bbt_node": (lambda v: canonical_cluster(gen_bbt(3), "bbt", depth=3, node=v), 4, "node"),
    "lattice_p": (lambda v: canonical_cluster(gen_lattice(4), "lattice", p=v), 4, "p"),
    "kron_levels": (lambda v: canonical_cluster(KRON2, "kron", levels=v), 2, "levels"),
    "kron_base_n": (lambda v: canonical_cluster(KRON2, "kron", levels=2, base_n=v), 6, "base_n"),
    "kron_base_half": (lambda v: canonical_cluster(KRON2, "kron", levels=2, base_half=(v,)), 1, "base_half vertex"),
    "naive_n": (lambda v: naive_bounds(v, 2), 10, "n"),
    "naive_max_cluster": (lambda v: naive_bounds(10, v), 2, "max_cluster"),
    "noncentrality_size": (lambda v: noncentrality(1.0, 1.0, v, 10), 2, "cluster_size"),
    "noncentrality_n": (lambda v: noncentrality(1.0, 1.0, 2, v), 10, "n"),
    "bbt_lambda2_bound": (lambda v: bbt_lambda2_bound(v), 3, "depth"),
    "graph_n": (lambda v: Graph(v, [0], [1], [1.0]).n, 2, "vertex count"),
    "signal_n": (lambda v: SignalSpec(n=v, mu=0.0, delta=0.0).beta().tolist(), 3, "n"),
}


@pytest.mark.parametrize("call, good, name", CALLS.values(), ids=CALLS)
def test_integers_only(call, good, name):
    assert call(np.int64(good)) == call(np.int32(good)) == call(good)
    for bad in (float(good), good + 0.5, True):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
            call(bad)

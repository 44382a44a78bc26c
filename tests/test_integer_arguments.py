"""Counts, sizes, ids and seeds must be integers, and real-valued arguments numbers: a bool, a string (or, for
an integer, a float) is refused naming the argument, not converted. A real-valued argument must also be finite
and, where its sign matters, positive or nonnegative, and some counts have a minimum; a value outside the range is
refused with one message, naming the argument and giving the value."""
import math
import re

import numpy as np
import pytest

from graphscan import (
    Cluster,
    Detector,
    ExperimentConfig,
    Graph,
    SignalSpec,
    bbt_lambda2_bound,
    calibrate_threshold,
    canonical_cluster,
    chi_max,
    gen_bbt,
    gen_kron_multiscale,
    gen_lattice,
    graph_spectrum,
    naive_bounds,
    noncentrality,
    null_threshold,
    replicate_rng,
    sample_observation,
    scale_weights,
    snr,
    spectral_snr_bound,
    sss,
    sss_stat,
    truncated_bound,
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


GRID = graph_spectrum(gen_lattice(3))
ALTERNATIVE = dict(n=4, cluster=Cluster(frozenset({0})))

# (call with the value under test, a valid value, the name a refusal gives)
REALS = {
    "calibrate_sigma": (lambda v: calibrate_threshold(Detector("sss", rho=0.5), gen_lattice(3), v, 0.05, 100, 1),
                        1.0, "sigma"),
    "calibrate_alpha": (lambda v: calibrate_threshold(Detector("sss", rho=0.5), gen_lattice(3), 1.0, v, 100, 1),
                        0.05, "alpha"),
    "sample_sigma": (lambda v: sample_observation(SignalSpec(n=3, mu=0.0, delta=0.0), v, replicate_rng(0, 0)).tolist(),
                     1.0, "sigma"),
    "snr_sigma": (lambda v: snr(SignalSpec(mu=0.0, delta=1.0, **ALTERNATIVE), v), 2.0, "sigma"),
    "signal_mu": (lambda v: SignalSpec(n=3, mu=v, delta=0.0).beta().tolist(), 0.5, "mu"),
    "signal_delta": (lambda v: SignalSpec(mu=0.0, delta=v, **ALTERNATIVE).beta().tolist(), 0.5, "delta"),
    "scale_weights": (lambda v: scale_weights(gen_lattice(3), v).w.tolist(), 2.0, "factor"),
    "chi_max_nu": (lambda v: chi_max(np.array([1.0, 2.0]), np.array([1.0, 3.0]), v), 0.5, "nu"),
    "snr_bound_rho": (lambda v: spectral_snr_bound(GRID, v), 0.5, "rho"),
    "null_threshold_sigma": (lambda v: null_threshold(GRID, 0.5, v, 0.05), 1.0, "sigma"),
    "null_threshold_conf": (lambda v: null_threshold(GRID, 0.5, 1.0, v), 0.05, "conf"),
    "noncentrality_delta": (lambda v: noncentrality(v, 1.0, 3, 10), 1.0, "delta"),
    "noncentrality_sigma": (lambda v: noncentrality(1.0, v, 3, 10), 1.0, "sigma"),
}


@pytest.mark.parametrize("call, good, name", REALS.values(), ids=REALS)
def test_reals_only(call, good, name):
    assert call(np.float64(good)) == call(good)
    for bad in (True, str(good)):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a number, got {bad!r}")):
            call(bad)


# (call with the value under test, the name a refusal gives, the range the value must be in)
RANGES = {
    "calibrate_sigma": (REALS["calibrate_sigma"][0], "sigma", "nonnegative and finite"),
    "sample_sigma": (REALS["sample_sigma"][0], "sigma", "nonnegative and finite"),
    "snr_sigma": (REALS["snr_sigma"][0], "sigma", "positive and finite"),
    "signal_mu": (REALS["signal_mu"][0], "mu", "finite"),
    "signal_delta": (REALS["signal_delta"][0], "delta", "finite"),
    "scale_weights": (REALS["scale_weights"][0], "scale factor", "positive and finite"),
    "chi_max_nu": (REALS["chi_max_nu"][0], "nu", "nonnegative and finite"),
    "snr_bound_rho": (REALS["snr_bound_rho"][0], "rho", "positive and finite"),
    "truncated_bound_rho": (lambda v: truncated_bound(GRID, v), "rho", "positive and finite"),
    "null_threshold_sigma": (REALS["null_threshold_sigma"][0], "sigma", "positive and finite"),
    "noncentrality_delta": (REALS["noncentrality_delta"][0], "delta", "finite"),
    "noncentrality_sigma": (REALS["noncentrality_sigma"][0], "sigma", "positive and finite"),
    "detector_sss_rho": (lambda v: Detector("sss", rho=v), "rho", "positive and finite"),
    "detector_glr_exact_rho": (lambda v: Detector("glr_exact", rho=v), "rho", "positive and finite"),
    "sss_rho": (lambda v: sss(GRID, np.arange(9.0), v), "rho", "positive and finite"),
    "sss_stat_rho": (lambda v: sss_stat(gen_lattice(3), np.arange(9.0), v), "rho", "positive and finite"),
    "config_mu": (lambda v: ExperimentConfig(family="bbt", params={"depth": 2}, mu=v), "mu", "finite"),
    "config_delta": (lambda v: ExperimentConfig(family="bbt", params={"depth": 2}, delta=v), "delta", "finite"),
    "config_rho": (lambda v: ExperimentConfig(family="bbt", params={"depth": 2}, rho=v, detectors=("energy",)),
                   "rho", "finite"),
    "config_sigma": (lambda v: ExperimentConfig(family="bbt", params={"depth": 2}, sigma=v), "sigma",
                     "positive and finite"),
}

# The values outside each range besides NaN and the infinities
_OUTSIDE = {"finite": (), "nonnegative and finite": (-1.0, -1e-300), "positive and finite": (0.0, -0.0, -1.0)}


@pytest.mark.parametrize("call, name, rule", RANGES.values(), ids=RANGES)
def test_reals_out_of_range(call, name, rule):
    for bad in (math.nan, math.inf, -math.inf, *_OUTSIDE[rule]):
        for value in (bad, np.float64(bad)):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {rule}, got {bad}')}$"):
                call(value)


# (call with the value under test, the name a refusal gives, the least value taken)
MINIMA = {
    "gen_bbt": (CALLS["gen_bbt"][0], "depth", 1),
    "gen_kron_multiscale": (CALLS["gen_kron_multiscale"][0], "levels", 1),
    "calibrate_reps": (CALLS["calibrate_reps"][0], "reps", 100),
    "naive_n": (lambda v: naive_bounds(v, 1), "n", 2),
    "bbt_lambda2_bound": (CALLS["bbt_lambda2_bound"][0], "depth", 1),
}


@pytest.mark.parametrize("call, name, minimum", MINIMA.values(), ids=MINIMA)
def test_integers_below_their_minimum(call, name, minimum):
    call(np.int64(minimum))
    for bad in (minimum - 1, -(2**70)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be >= {minimum}, got {bad}')}$"):
            call(bad)

"""Counts, sizes, ids and seeds must be integers, and real-valued arguments numbers: a bool, a string (or, for
an integer, a float) is refused naming the argument, not converted. A real-valued argument must also be finite
and, where its range matters, positive, nonnegative or in (0, 1), and some counts have a minimum or lie in an
interval; a value outside the range is refused with one message, naming the argument and giving the value, an
integer too large for a double counting as infinite. An observation is a vector of finite numbers, refused with
one message wherever it enters, and every array a caller passes holds numbers by the same rule: a bool or text
entry is refused, and a numeric dtype reads as its values. Valid extreme arguments score without a numpy warning."""
import math
import re
import warnings

import numpy as np
import pytest

from graphscan import (
    Cluster,
    Detector,
    ExperimentConfig,
    Graph,
    RocCurve,
    SignalSpec,
    bbt_lambda2_bound,
    bounds_report,
    calibrate_threshold,
    canonical_cluster,
    center,
    chi_max,
    eig_sym,
    energy_stat,
    gen_bbt,
    gen_kron_multiscale,
    gen_lattice,
    glr_unconstrained,
    graph_spectrum,
    laplacian,
    naive_bounds,
    noncentrality,
    null_threshold,
    replicate_rng,
    run_roc,
    sample_observation,
    scale_weights,
    snr,
    spectral_snr_bound,
    sss,
    sss_stat,
    truncated_bound,
    two_triangles,
)
from graphscan.detectors import _replicate_statistics

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
    "lattice_p": (lambda v: canonical_cluster(gen_lattice(4), "lattice", p=v), 4, "p"),
    "kron_levels": (lambda v: canonical_cluster(KRON2, "kron", levels=v), 2, "levels"),
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
    "calibrate_alpha": (REALS["calibrate_alpha"][0], "alpha", "in (0, 1)"),
    "null_threshold_conf": (REALS["null_threshold_conf"][0], "conf", "in (0, 1)"),
}

# The values outside each range besides NaN and the infinities
_OUTSIDE = {
    "finite": (),
    "nonnegative and finite": (-1.0, -1e-300),
    "positive and finite": (0.0, -0.0, -1.0),
    "in (0, 1)": (0.0, -0.0, 1.0, -1.0, 2.0),
}


@pytest.mark.parametrize("call, name, rule", RANGES.values(), ids=RANGES)
def test_reals_out_of_range(call, name, rule):
    for bad in (math.nan, math.inf, -math.inf, *_OUTSIDE[rule]):
        for value in (bad, np.float64(bad)):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {rule}, got {bad}')}$"):
                call(value)


@pytest.mark.parametrize("call, name, rule", RANGES.values(), ids=RANGES)
def test_integers_beyond_the_doubles_count_as_infinite(call, name, rule):
    for bad, shown in ((10**400, math.inf), (-(10**400), -math.inf)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {rule}, got {shown}')}$"):
            call(bad)


# (call with the value under test, the name a refusal gives, the least value taken)
MINIMA = {
    "gen_bbt": (CALLS["gen_bbt"][0], "depth", 1),
    "gen_kron_multiscale": (CALLS["gen_kron_multiscale"][0], "levels", 1),
    "calibrate_reps": (CALLS["calibrate_reps"][0], "reps", 100),
    "naive_n": (lambda v: naive_bounds(v, 1), "n", 2),
    "bbt_lambda2_bound": (CALLS["bbt_lambda2_bound"][0], "depth", 1),
    "graph_n": (lambda v: Graph(v, (), (), ()).n, "vertex count", 1),
    "signal_n": (lambda v: SignalSpec(n=v, mu=0.0, delta=0.0).n, "n", 1),
    "config_reps_null": (lambda v: ExperimentConfig(family="bbt", params={"depth": 2}, reps_null=v), "reps_null", 1),
    "config_reps_alt": (lambda v: ExperimentConfig(family="bbt", params={"depth": 2}, reps_alt=v), "reps_alt", 1),
    "gen_lattice": (lambda v: gen_lattice(v), "p", 2),
    "gen_lattice_periodic": (lambda v: gen_lattice(v, periodic=True), "p", 3),
    "bbt_cluster_depth": (lambda v: canonical_cluster(gen_bbt(2), "bbt", depth=v), "depth", 2),
}


@pytest.mark.parametrize("call, name, minimum", MINIMA.values(), ids=MINIMA)
def test_integers_below_their_minimum(call, name, minimum):
    call(np.int64(minimum))
    for bad in (minimum - 1, -(2**70)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be >= {minimum}, got {bad}')}$"):
            call(bad)


# (call with the value under test, the name a refusal gives, the least and the largest value taken)
INTERVALS = {
    "naive_max_cluster": (CALLS["naive_max_cluster"][0], "max_cluster", 1, 5),
    "noncentrality_size": (lambda v: noncentrality(1.0, 1.0, v, 10), "cluster_size", 1, 9),
}


@pytest.mark.parametrize("call, name, least, largest", INTERVALS.values(), ids=INTERVALS)
def test_integers_outside_their_interval(call, name, least, largest):
    call(np.int64(least))
    call(largest)
    for bad in (least - 1, largest + 1, -(2**70), 2**70):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be in {least}..{largest}, got {bad}')}$"):
            call(bad)


# (call with the observation under test, the length it must have, None for any positive length)
OBSERVATIONS = {
    "detector_statistic": (lambda y: Detector("edge").statistic(gen_lattice(3), y), 9),
    "sss": (lambda y: sss(GRID, y, 0.5).value, 9),
    "sss_stat": (lambda y: sss_stat(gen_lattice(3), y, 0.5), 9),
    "energy_stat": (energy_stat, None),
    "glr_unconstrained": (glr_unconstrained, None),
    "center": (lambda y: center(y).tolist(), None),
}


@pytest.mark.parametrize("call, n", OBSERVATIONS.values(), ids=OBSERVATIONS)
def test_observations_refused_as_passed(call, n):
    call(np.arange(9.0))
    for bad in (np.ones((2, 9)), np.ones((1, 9)), np.float64(1.0), 1.0):
        with pytest.raises(ValueError, match=f"^{re.escape(f'expected an observation vector, got shape {np.shape(bad)}')}$"):
            call(bad)
    expected = "at least 1" if n is None else n
    with pytest.raises(ValueError, match=f"^observation has length 0, expected {expected}$"):
        call(np.array([]))
    with pytest.raises(ValueError, match="^observation contains NaN or infinite values$"):
        call(np.r_[np.arange(8.0), math.nan])
    # numpy read a bool as 0 or 1 and text as the number it spells
    for bad, shown in ((np.ones(9, dtype=bool), "True"), ([0.0] * 8 + [True], "True"), (list("123456789"), "'1'")):
        with pytest.raises(ValueError, match=f"^observation must hold only numbers, got {shown}$"):
            call(bad)


# each reader of an array a caller passes, on whole numbers that every numeric dtype holds
ARRAYS = {
    "energy_stat": (energy_stat, [3, 1, 4, 1, 5, 9, 2, 6, 5]),
    "sss_stat": (lambda y: sss_stat(gen_lattice(3), y, 0.5), [3, 1, 4, 1, 5, 9, 2, 6, 5]),
    "center": (lambda y: center(y).tolist(), [3, 1, 4, 1, 5]),
    "graph_ids": (lambda ids: Graph(3, ids, [1, 2], [1.0, 1.0]), [0, 1]),
    "graph_weights": (lambda w: Graph(3, [0, 1], [1, 2], w), [2, 7]),
    "eig_sym": (lambda m: eig_sym(m).eigenvalues.tolist(), [[2, 1], [1, 3]]),
    "chi_max": (lambda c: chi_max(c, [1, 2], 0.5), [1, 2]),
    "chi_max_lambdas": (lambda lambdas: chi_max([1.0, 2.0], lambdas, 0.5), [1, 2]),
    "roc_curve": (lambda points: RocCurve(points), [[0, 1, 1], [1, 0, 1]]),
}


@pytest.mark.parametrize("call, values", ARRAYS.values(), ids=ARRAYS)
@pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.float32, list])
def test_numeric_arrays_read_as_their_values(call, values, dtype):
    expected = call(np.array(values, dtype=float))
    assert call(values if dtype is list else np.array(values, dtype=dtype)) == expected


def test_subnormal_confidence_is_finite():
    sigma, rho = 1.5, 0.5
    for conf in (1e-300, 1e-320, 5e-324):
        expected = (math.sqrt(2.0 * sigma**2) * spectral_snr_bound(GRID, rho)
                    + math.sqrt(2.0 * sigma**2 * (math.log(2.0) - math.log(conf)))) ** 2
        assert null_threshold(GRID, rho, sigma, conf) == pytest.approx(expected, rel=1e-15)
    assert null_threshold(GRID, rho, sigma, 5e-324) > null_threshold(GRID, rho, sigma, 1e-300)


def test_largest_rho_scores_without_warnings():
    # eigenvalues from 0.01 up, so that rho / lambda overflows
    g = scale_weights(gen_lattice(3), 0.01)
    spectrum, y = graph_spectrum(g), np.arange(9.0)
    largest = float(spectrum.eigenvalues[-1])  # the ball alone binds from here on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sss(spectrum, y, 1e308)
        assert (result.value, result.case) == (sss(spectrum, y, largest).value, "a")
        assert sss_stat(g, y, 1e308) == result.value
        assert spectral_snr_bound(spectrum, 1e308) == spectral_snr_bound(spectrum, largest) == math.sqrt(8.0)
        assert null_threshold(spectrum, 1e308, 1.0, 0.05) == null_threshold(spectrum, largest, 1.0, 0.05)
        report = bounds_report(spectrum, 1e308, 1.0, 0.05)
        assert report.truncated_bound is None and report.spectral_sum_bound == math.sqrt(8.0)


@pytest.mark.parametrize("rho", [1e-310, 5e-324])
def test_subnormal_rho_is_refused_as_an_underflow(rho):
    # lambda/rho overflows: the value lies below the normal doubles, and is
    # refused with no numpy warning rather than read as 0
    g = gen_lattice(4)
    y = np.random.default_rng(0).standard_normal(g.n)
    calls = (lambda: sss(graph_spectrum(g), y, rho), lambda: sss_stat(g, y, rho),
             lambda: calibrate_threshold(Detector("sss", rho=rho), g, 1.0, 0.05, 200, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="^the sss statistic underflows"):
                call()


@pytest.mark.parametrize(
    "rho, scale, value", [(3e-308, 1.0, 4.277e-307), (3e-308, 1e100, 4.277e-107), (1e-310, 1e100, 1.426e-109)]
)
def test_rho_past_the_unit_ellipsoid_is_solved_in_case_b(rho, scale, value):
    # lambda_max/rho = inf on the 4x4 grid (lambda_max 6.83), yet the value
    # rho * sum c_i**2/lambda_i is a normal double: solved at rho * 4**shift
    # and scaled back, with no numpy warning
    g = gen_lattice(4)
    spectrum = graph_spectrum(g)
    y = scale * np.random.default_rng(0).standard_normal(g.n)
    inverse = float(np.sum(spectrum.project(center(y)) ** 2 / spectrum.eigenvalues[1:]))
    expected = rho * inverse
    assert expected == pytest.approx(value, rel=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sss(spectrum, y, rho)
        values = [result.value, sss_stat(g, y, rho), *Detector("sss", rho=rho).statistics(g, np.stack((y, y)))]
        assert values == pytest.approx([expected] * 4, rel=1e-12, abs=0.0)
        assert result.case == "b" and result.nu_star == pytest.approx(inverse, rel=1e-12)
        assert abs(result.gap) <= 1e-12 * result.value  # case b's dual is its value up to rounding
        witness = np.ldexp(result.witness, 600)  # on the ellipsoid of rho * 4**600, out of the subnormals
        assert witness @ laplacian(g) @ witness <= math.ldexp(rho, 1200) * (1.0 + 1e-12)
        det, sigma = Detector("sss", rho=rho), scale
        threshold = calibrate_threshold(det, g, sigma, 0.05, 200, 3)
        stats = np.sort(_replicate_statistics((det,), g, ((0.0, 200),), sigma, 3)[:, 0])
        assert threshold == stats[189] > 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda sigma: calibrate_threshold(Detector("sss", rho=0.5), gen_lattice(3), sigma, 0.05, 100, 1),
        lambda sigma: calibrate_threshold(Detector("energy"), gen_lattice(3), sigma, 0.05, 100, 1),
        lambda sigma: run_roc(ExperimentConfig(family="lattice", params={"p": 3}, sigma=sigma, reps_null=5, reps_alt=5)),
    ],
    ids=["calibrate_sss", "calibrate_energy", "run_roc"],
)
def test_noise_that_overflows_names_sigma(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^sigma must be small enough for finite noise, got 1e\+308$"):
            call(1e308)
    call(1e100)  # large, but every draw and statistic stays finite


@pytest.mark.parametrize(
    "y, refusal",
    [(1e200 * np.arange(9.0), "overflows"), (1e-200 * np.arange(9.0), "underflows"),
     (np.r_[1.7e308, -1.7e308, np.zeros(7)], "overflows")],
    ids=["value_overflows", "value_underflows", "coefficients_overflow"],
)
def test_sss_refuses_under_its_kind_name(y, refusal):
    for call in (lambda: sss(GRID, y, 0.5), lambda: sss_stat(gen_lattice(3), y, 0.5)):
        with pytest.raises(ValueError, match=f"^the sss statistic {refusal}: the observation is too "):
            call()


def test_runtime_warnings_fail_the_suite():
    # pyproject.toml turns a leaked numpy RuntimeWarning into an error
    with pytest.raises(RuntimeWarning, match="overflow"):
        np.array([1e308]) * 10.0

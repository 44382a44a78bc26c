"""The SSS threshold from partly solved replicates, against solving every replicate in full."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from graphscan import detectors, spectral
from graphscan.detectors import _replicate_statistics
from graphscan.spectral import _BOUND_RTOL, _closed_form_bounds, _grouped_kkt, _scaled_sums
from helpers import draw_rho, random_connected_graph

GRAPHS = {
    "bbt": lambda: gen_bbt(5),
    "torus": lambda: gen_lattice(6, periodic=True),
    "grid": lambda: gen_lattice(6),
    "kron": lambda: gen_kron_multiscale(two_triangles(), 2),
    "random": lambda: random_connected_graph(np.random.default_rng(8), max_n=30, min_n=30),
}
ALPHAS = (0.01, 0.05, 0.5, 0.99)


def full_solve_threshold(det, g, sigma, alpha, reps, seed):
    """The order statistic of every replicate solved in full, as the threshold is defined."""
    stats = _replicate_statistics((det,), g, [0.0] * reps, sigma, seed)[:, 0]
    return np.sort(stats)[math.ceil((1.0 - alpha) * reps) - 1]


def rho_for(g, setting):
    lambdas = graph_spectrum(g).eigenvalues
    # every row in case "c" or a mix; every row in case "a" (rho >= lambda_n)
    # or in case "b" (rho < lambda_2)
    return {"mixed": math.sqrt(lambdas[1] * lambdas[-1]), "all-a": lambdas[-1], "all-b": 0.5 * lambdas[1]}[setting]


class TestBitForBit:
    @pytest.mark.parametrize("setting", ["mixed", "all-a", "all-b"])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_matches_sorting_full_solves(self, monkeypatch, name, setting):
        g = GRAPHS[name]()
        det = Detector("sss", rho=rho_for(g, setting))
        # the default block, then blocks of 1 and 7 rows
        runs = [(None, 100, 1.0), (None, 257, 1.0), (None, 100, 0.0)]
        if setting == "mixed":
            runs += [(1, 100, 1.0), (7, 100, 1.0)]
        for rows, reps, sigma in runs:
            if rows is not None:
                monkeypatch.setattr(detectors, "_BLOCK_ENTRIES", rows * g.n)
            stats = np.sort(_replicate_statistics((det,), g, [0.0] * reps, sigma, 11)[:, 0])
            for alpha in ALPHAS:
                threshold = calibrate_threshold(det, g, sigma, alpha, reps, 11)
                assert threshold == stats[math.ceil((1.0 - alpha) * reps) - 1]
                assert type(threshold) is float

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_open_roots_past_the_cap_are_solved_in_full(self, monkeypatch, alpha):
        g = gen_lattice(6, periodic=True)
        det = Detector("sss", rho=rho_for(g, "mixed"))
        expected = full_solve_threshold(det, g, 1.0, alpha, 150, 4)
        monkeypatch.setattr(spectral, "_OPEN_ENTRIES", 1)
        assert calibrate_threshold(det, g, 1.0, alpha, 150, 4) == expected

    def test_few_replicates_are_solved_in_full(self, monkeypatch):
        g = gen_lattice(12, periodic=True)
        det = Detector("sss", rho=2.0)  # 199 of the 200 rows in case "c"
        expected = full_solve_threshold(det, g, 1.0, 0.05, 200, 2)
        finished = []
        solve = spectral._grouped_kkt

        def counted(s, lambdas, rho, rtol=spectral._ROOT_RTOL):
            if rtol == spectral._ROOT_RTOL:
                finished.append(s)
            return solve(s, lambdas, rho, rtol)

        monkeypatch.setattr(spectral, "_grouped_kkt", counted)
        assert calibrate_threshold(det, g, 1.0, 0.05, 200, 2) == expected
        assert 1 <= len(finished) <= 10

    def test_closed_form_bounds_leave_few_rows_to_narrow(self, monkeypatch):
        g = gen_lattice(12, periodic=True)
        det = Detector("sss", rho=2.0)  # mid-spectrum, where the closed-form bounds are loosest
        expected = full_solve_threshold(det, g, 1.0, 0.05, 200, 2)
        narrowed = []
        solve = spectral._grouped_kkt

        def counted(s, lambdas, rho, rtol=spectral._ROOT_RTOL):
            if rtol == spectral._COARSE_RTOL:
                narrowed.append(s)
            return solve(s, lambdas, rho, rtol)

        monkeypatch.setattr(spectral, "_grouped_kkt", counted)
        assert calibrate_threshold(det, g, 1.0, 0.05, 200, 2) == expected
        # narrowing every row, as a first pass without closed-form bounds would, takes 200
        assert len(narrowed) <= 80

    @pytest.mark.parametrize("sigma, match", [(1e160, "overflows"), (1e-160, "underflows")])
    def test_refuses_extreme_scales_as_a_full_solve_does(self, sigma, match):
        g = gen_lattice(6, periodic=True)
        det = Detector("sss", rho=rho_for(g, "mixed"))
        with pytest.raises(ValueError, match=match):
            full_solve_threshold(det, g, sigma, 0.05, 100, 3)
        with pytest.raises(ValueError, match=match):
            calibrate_threshold(det, g, sigma, 0.05, 100, 3)


def case_c_rho(spec, y, u):
    """A level between the case-"b" and case-"a" limits of ``y``, so ``y`` is in case "c" there."""
    c = spec.project(y - y.mean())
    lambdas = spec.eigenvalues[1:]
    p = c * c / float(c @ c)
    lo, hi = float((p / lambdas).sum() / (p / lambdas**2).sum()), float(p @ lambdas)
    assume(hi > lo * (1.0 + 1e-6))
    return lo ** (1.0 - u) * hi**u


def rho_in(lambdas, regime, u):
    """A level below lambda_2, between lambda_2 and lambda_n, or at least lambda_n, placed by ``u`` in [0, 1]."""
    lam2, lamn = float(lambdas[1]), float(lambdas[-1])
    levels = {"below": lam2 * (0.01 + 0.98 * u), "between": lam2 ** (1.0 - u) * lamn**u, "above": lamn * (1.0 + 3.0 * u)}
    return levels[regime]


class TestBounds:
    @settings(max_examples=90)
    @given(
        seed=st.integers(0, 2**32 - 1),
        regime=st.sampled_from(["below", "between", "above"]),
        u=st.floats(0.0, 1.0),
    )
    def test_closed_form_bounds_enclose_the_value(self, seed, regime, u):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, min_n=3)
        spec = graph_spectrum(g)
        rho = rho_in(spec.eigenvalues, regime, u)
        sums = _scaled_sums(spec, rng.standard_normal((8, g.n)))[2]
        solved = [_grouped_kkt(row, spec.groups[1], rho) for row in sums]
        for (low, high), (value, _, case, *_) in zip(_closed_form_bounds(spec, sums, rho), solved):
            assert low * (1.0 - _BOUND_RTOL) <= value <= high * (1.0 + _BOUND_RTOL)
            if case != "c":
                assert low == pytest.approx(value, rel=1e-12, abs=0.0)
                assert high == pytest.approx(value, rel=1e-12, abs=0.0)

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        u=st.floats(0.01, 0.99),
        log_rtol=st.floats(-13.0, 0.0),
    )
    def test_any_bracket_encloses_the_value(self, seed, u, log_rtol):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, min_n=3)
        spec = graph_spectrum(g)
        y = rng.standard_normal((1, g.n))
        rho = case_c_rho(spec, y[0], u)
        (s,) = _scaled_sums(spec, y)[2]
        value, _, case, *_ = _grouped_kkt(s, spec.groups[1], rho)
        low, high, *_ = _grouped_kkt(s, spec.groups[1], rho, 10.0**log_rtol)
        assert case == "c"
        assert low * (1.0 - _BOUND_RTOL) <= value <= high * (1.0 + _BOUND_RTOL)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_value_does_not_decrease_as_rho_grows(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, min_n=3)
        spec = graph_spectrum(g)
        y = rng.standard_normal(g.n)
        rhos = sorted(draw_rho(rng, spec.eigenvalues) for _ in range(6))
        values = [sss(spec, y, rho).value for rho in rhos]
        for smaller, larger in zip(values, values[1:]):
            assert smaller <= larger * (1.0 + 1e-12)

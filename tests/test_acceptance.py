"""Acceptance suite: the eight exit criteria at their stated tolerances.

Each test prints one ``ACCEPTANCE n (<name>): PASS|FAIL`` line (visible with
``pytest -s`` or in the captured-output report) and then asserts.

Known red: criterion 2 fails for depths 4..8 and is expected to. The
simplified connectivity bound 2**depth + 105*[depth < 4] holds for a balanced
binary tree whose *level count* is ``depth`` (2**depth - 1 vertices), but the
generator's depth-d tree has 2**(d+1) - 1 vertices, for which 1/lambda_2
approaches 2**(d+1). The criterion pairs the bound with the generator's depth
convention, so it is off by one level and numerically unattainable; see
test_bounds.TestBbtLambda2Bound for the relationship that does hold.
"""
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from graphscan import (
    Detector,
    EmptyClassError,
    bbt_lambda2_bound,
    build_graph,
    calibrate_threshold,
    energy_stat,
    gen_bbt,
    gen_kron_multiscale,
    gen_lattice,
    glr_exact,
    glr_unconstrained,
    graph_spectrum,
    kronecker_product,
    laplacian,
    null_threshold,
    replicate_rng,
    spectral_snr_bound,
    sss,
    two_triangles,
    write_roc_csv,
)
from graphscan.simulate import auc, preset_config, run_roc
from graphscan.spectral import chi_max
from helpers import draw_rho, glr_brute_force, random_connected_graph, secular_inputs, sss_certificate


def report(capsys, number: int, name: str, ok: bool, detail: str = "") -> None:
    """Emit the criterion verdict on the real terminal, bypassing capture."""
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")


class TestCriterion1SpectralIdentities:
    def test_lattice_cosine_formula_and_kronecker_additivity(self, capsys):
        start = time.time()
        ok = True
        # periodic lattice eigenvalues match the double-cosine formula
        for p in (3, 4, 8):
            eigs = np.sort(np.linalg.eigvalsh(laplacian(gen_lattice(p, periodic=True))))
            formula = np.sort(
                [
                    2.0 * (2.0 - math.cos(2 * math.pi * i / p) - math.cos(2 * math.pi * j / p))
                    for i in range(p)
                    for j in range(p)
                ]
            )
            ok &= bool(np.abs(eigs - formula).max() <= 1e-9)
        # Kronecker product spectrum is the sum multiset, 50 random pairs
        rng = np.random.default_rng(100)
        for _ in range(50):
            g1 = random_connected_graph(rng, max_n=6)
            g2 = random_connected_graph(rng, max_n=6)
            eigs = np.linalg.eigvalsh(laplacian(kronecker_product(g1, g2)))
            e1 = np.linalg.eigvalsh(laplacian(g1))
            e2 = np.linalg.eigvalsh(laplacian(g2))
            expected = np.sort((e1[:, None] + e2[None, :]).ravel())
            ok &= bool(np.abs(np.sort(eigs) - expected).max() <= 1e-9)
        elapsed = time.time() - start
        ok &= elapsed < 30
        report(capsys, 1, "spectral identities", ok, f"{elapsed:.1f}s")
        assert ok


class TestCriterion2BbtConnectivity:
    def test_reciprocal_connectivity_bound(self, capsys):
        start = time.time()
        rows = []
        ok = True
        for depth in range(2, 9):
            lam2 = float(graph_spectrum(gen_bbt(depth)).eigenvalues[1])
            bound = bbt_lambda2_bound(depth)
            holds = 1.0 / lam2 <= bound
            ok &= holds
            rows.append(f"depth={depth}: 1/lam2={1.0 / lam2:.2f} bound={bound:.0f} {'ok' if holds else 'VIOLATED'}")
        elapsed = time.time() - start
        ok &= elapsed < 60
        report(capsys, 2, "BBT connectivity bound", ok, f"{elapsed:.1f}s")
        assert ok, (
            "the stated bound 2**depth + 105*[depth<4] fails for the generator's "
            "depth convention (n = 2**(depth+1) - 1), where 1/lambda_2 approaches "
            "2**(depth+1); a tree with 2**depth - 1 vertices would satisfy it.\n"
            + "\n".join(rows)
        )


class TestCriterion3Duality:
    def test_dual_against_primal_and_exact_glr(self, capsys):
        start = time.time()
        rng = np.random.default_rng(2024)
        ok = True
        duality_checked = glr_checked = 0
        attempts = 0
        while glr_checked < 200 and attempts < 2000:
            attempts += 1
            g = random_connected_graph(rng)
            spectrum = graph_spectrum(g)
            y = rng.standard_normal(g.n)
            rho = draw_rho(rng, spectrum.eigenvalues)
            result = sss(spectrum, y, rho)
            if duality_checked < 200:
                feasible, primal, dual = sss_certificate(g, y, rho, result)
                ok &= feasible
                ok &= result.value >= primal - 1e-8
                ok &= dual >= result.value - 1e-8
                ok &= dual - primal <= 1e-6 * (1 + result.value)
                ok &= abs(result.gap) <= 1e-12 * result.value
                duality_checked += 1
            try:
                exact = glr_exact(g, y, rho)
            except EmptyClassError:
                continue
            ok &= result.value >= exact - 1e-8
            glr_checked += 1
        ok &= duality_checked >= 200 and glr_checked >= 200
        elapsed = time.time() - start
        ok &= elapsed < 60
        report(capsys, 3, "duality suite", ok, f"{duality_checked}+{glr_checked} instances, {elapsed:.1f}s")
        assert ok


class TestCriterion4OracleEquivalence:
    def test_prefix_scan_and_secular_solver(self, capsys):
        start = time.time()
        rng = np.random.default_rng(404)
        ok = True
        for _ in range(200):
            g = random_connected_graph(rng)
            y = rng.standard_normal(g.n)
            ok &= glr_unconstrained(y) == glr_brute_force(g, y)
        for c, lam, nu in secular_inputs(rng, 200, 4):
            dense = float(np.linalg.eigvalsh(np.outer(c, c) - nu * np.diag(lam))[-1])
            fast = chi_max(c, lam, nu)
            ok &= abs(fast - dense) <= 1e-9 * max(1.0, abs(dense))
        elapsed = time.time() - start
        ok &= elapsed < 60
        report(capsys, 4, "oracle equivalence", ok, f"{elapsed:.1f}s")
        assert ok


class TestCriterion5NullCalibration:
    def test_chi_square_law_threshold_and_analytic_exceedance(self, capsys):
        start = time.time()
        ok = True
        # moments of the null energy statistic against chi^2_{n-1}
        n, draws, dof = 100, 10_000, 99
        stats = np.array(
            [energy_stat(replicate_rng(555, r).standard_normal(n)) for r in range(draws)]
        )
        ok &= abs(stats.mean() - dof) <= 4 * math.sqrt(2 * dof / draws)
        ok &= abs(stats.var() - 2 * dof) <= 0.15 * 2 * dof
        # Monte Carlo threshold against the quantile oracle
        g100 = gen_lattice(10)
        threshold = calibrate_threshold(
            Detector("energy"), g100, sigma=1.0, alpha=0.05, reps=100_000, seed=606
        )
        ok &= abs(threshold - float(sps.chi2.ppf(0.95, dof))) <= 1.5
        # analytic threshold keeps the scan-statistic false-alarm rate below conf
        path10 = build_graph(10, [(i, i + 1, 1.0) for i in range(9)])
        spectrum = graph_spectrum(path10)
        tau = null_threshold(spectrum, rho=2.0, sigma=1.0, conf=0.1)
        exceed = sum(
            sss(spectrum, replicate_rng(707, r).standard_normal(10), 2.0).value > tau
            for r in range(10_000)
        )
        ok &= exceed / 10_000 <= 0.1
        elapsed = time.time() - start
        ok &= elapsed < 300
        report(capsys, 5, "null calibration", ok, f"exceedance {exceed}/10000, {elapsed:.1f}s")
        assert ok


class TestCriterion6RocOrdering:
    def test_scan_statistic_dominates_naive_detectors(self, capsys):
        start = time.time()
        ok = True
        details = []
        for name in ("bbt-fig1", "lattice-fig1", "kron-fig1"):
            curves = run_roc(preset_config(name))
            aucs = {kind: auc(curve) for kind, curve in curves.items()}
            ok &= aucs["sss"] >= aucs["energy"] + 0.02
            ok &= aucs["sss"] >= aucs["edge"] + 0.02
            details.append(
                f"{name}: sss={aucs['sss']:.3f} energy={aucs['energy']:.3f} edge={aucs['edge']:.3f}"
            )
        elapsed = time.time() - start
        ok &= elapsed < 600
        report(capsys, 6, "ROC qualitative ordering", ok, "; ".join(details) + f", {elapsed:.1f}s")
        assert ok


class TestCriterion7ScalingProbes:
    def test_tree_and_lattice_rate_bands(self, capsys):
        start = time.time()
        ok = True
        tree_ratios = []
        for depth in range(4, 10):
            g = gen_bbt(depth)
            n = g.n
            rho = n / ((n / 4.0) * (n - n / 4.0))
            bound = spectral_snr_bound(graph_spectrum(g), rho)
            tree_ratios.append(bound**2 / math.log(n) ** 2)
        ok &= max(tree_ratios) / min(tree_ratios) <= 10.0
        lattice_ratios = []
        for p in (8, 16, 32, 64):
            g = gen_lattice(p, periodic=True)
            n = p * p
            bound = spectral_snr_bound(graph_spectrum(g), 4.0 / math.sqrt(n))
            lattice_ratios.append(bound**2 / n**0.75)
        ok &= max(lattice_ratios) / min(lattice_ratios) <= 10.0
        # multiscale product: normalized saturated-sum bound from the base connectivity
        base = two_triangles()
        p = base.n
        nu2 = float(graph_spectrum(base).eigenvalues[1])
        for levels in (2, 3):
            g = gen_kron_multiscale(base, levels)
            eigs = graph_spectrum(g).eigenvalues
            rho = float(p) ** (2 * 1 - levels - 1)
            terms = np.ones_like(eigs)
            positive = eigs > 1e-12
            terms[positive] = np.minimum(1.0, rho / eigs[positive])
            ok &= float(terms.sum()) / g.n <= (levels + 2) * rho / nu2
        elapsed = time.time() - start
        ok &= elapsed < 600
        report(
            capsys,
            7,
            "scaling probes",
            ok,
            f"tree band {max(tree_ratios)/min(tree_ratios):.2f}, "
            f"lattice band {max(lattice_ratios)/min(lattice_ratios):.2f}, {elapsed:.0f}s",
        )
        assert ok


class TestCriterion8Determinism:
    def test_rerun_and_thread_count_byte_identical(self, tmp_path, capsys):
        start = time.time()
        config = preset_config("kron-fig1")
        blobs = []
        for label in ("a", "b", "c"):
            out = tmp_path / label
            out.mkdir()
            curves = run_roc(config)
            for kind, curve in curves.items():
                write_roc_csv(curve, out / f"roc_{kind}.csv")
            blobs.append(
                b"".join(sorted((out / f"roc_{k}.csv").read_bytes() for k in curves))
            )
        ok = blobs[0] == blobs[1] == blobs[2]
        elapsed = time.time() - start
        report(capsys, 8, "determinism", ok, f"{elapsed:.1f}s")
        assert ok

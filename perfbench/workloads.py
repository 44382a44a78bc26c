"""The benchmark's workloads: cold set-up, one end-to-end call, output checks.

Each workload calls only graphscan's public API, with ``threads`` left unset.
Function names are looked up on the package at call time, so that the tracer
in :mod:`tracing` can wrap them from outside.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import graphscan as gs
import oracle

# The lru-cached original; tracing rebinds the public name to a wrapper.
GRAPH_SPECTRUM = gs.graph_spectrum

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Seed of the extra call whose output is compared with reference.json.
REFERENCE_SEED = 7
# Relative tolerance on reference thresholds. Sizes and powers must match exactly.
REFERENCE_RTOL = 1e-9


def call_seed(seed: int, index: int) -> int:
    """Experiment seed of the index-th call in a run with workload seed ``seed``."""
    return seed * 1_000_000 + index


def _spread(count: int, first: int, k: int) -> list[int]:
    """k replicate indices spread evenly over [first, first + count)."""
    return sorted({first + round(j * (count - 1) / max(k - 1, 1)) for j in range(k)})


@dataclass(frozen=True)
class RocWorkload:
    """``run_roc`` on one experiment config; the output is its ROC curves."""

    name: str
    config: gs.ExperimentConfig
    setup_repeats: int
    certify_samples: int  # replicates certified per checked call, half null and half alternative

    @property
    def reps_per_call(self) -> int:
        return self.config.reps_null + self.config.reps_alt

    @property
    def needs_spectrum(self) -> bool:
        return "sss" in self.config.detectors

    def setup(self) -> gs.Graph:
        g = gs.simulate.build_experiment_graph(self.config)
        if self.needs_spectrum:
            gs.graph_spectrum(g)
        return g

    def call(self, g: gs.Graph, seed: int) -> dict:
        return gs.run_roc(replace(self.config, seed=seed))

    def summary(self, curves: dict) -> dict:
        return {kind: [list(p) for p in curve.points] for kind, curve in curves.items()}

    def check(self, g: gs.Graph, seed: int, curves: dict, certify: bool) -> list[str]:
        cfg = self.config
        if list(curves) != list(cfg.detectors):
            return [f"detectors {list(curves)} != {list(cfg.detectors)}"]
        problems = []
        for kind, curve in curves.items():
            t = np.array([p[0] for p in curve.points])
            size, power = curve.sizes(), curve.powers()
            if not 1 <= t.size <= cfg.reps_null or not np.all(np.isfinite(t)):
                problems.append(f"{kind}: {t.size} thresholds, or a non-finite one")
            elif np.any(np.diff(t) <= 0.0):
                problems.append(f"{kind}: thresholds not strictly ascending")
            elif size[-1] != 0.0:
                problems.append(f"{kind}: size {size[-1]} above the largest null statistic")
            for rates, reps in ((size, cfg.reps_null), (power, cfg.reps_alt)):
                counts = rates * reps
                if np.any(np.abs(counts - np.round(counts)) > 1e-9 * reps):
                    problems.append(f"{kind}: rates are not multiples of 1/{reps}")
        if certify and not problems:
            problems += self._certify(g, seed, curves)
        return problems

    def _certify(self, g: gs.Graph, seed: int, curves: dict) -> list[str]:
        """Recompute sampled replicates independently and tie the null ones to the curves."""
        cfg = self.config
        half = self.certify_samples // 2
        null = gs.SignalSpec(n=g.n, mu=cfg.mu, delta=0.0)
        cluster = gs.canonical_cluster(g, cfg.family, **cfg.params)
        alt = gs.SignalSpec(n=g.n, mu=cfg.mu, delta=cfg.delta, cluster=cluster)
        samples = [(null, r) for r in _spread(cfg.reps_null, 0, half)]
        samples += [(alt, r) for r in _spread(cfg.reps_alt, cfg.reps_null, half)]
        lap = gs.laplacian(g) if self.needs_spectrum else None
        problems = []
        for spec, r in samples:
            y = gs.sample_observation(spec, cfg.sigma, gs.replicate_rng(seed, r))
            for kind in cfg.detectors:
                rho = cfg.rho if kind == "sss" else None
                value = gs.Detector(kind, rho=rho).statistic(g, y)
                where = f"{kind} replicate {r} of seed {seed}"
                if kind == "sss":
                    result = gs.sss(gs.graph_spectrum(g), y, cfg.rho)
                    if result.value != value:
                        problems.append(f"{where}: sss_stat {value!r} != sss {result.value!r}")
                    problems += [f"{where}: {p}" for p in oracle.certify_sss(lap, y, cfg.rho, result)]
                else:
                    ref = oracle.baseline(kind, g.edges, y)
                    if not oracle.close(value, ref, oracle.STAT_RTOL):
                        problems.append(f"{where}: {value!r} != reference {ref!r}")
                if spec is null:
                    t = np.array([p[0] for p in curves[kind].points])
                    if np.abs(t - value).min() > oracle.STAT_RTOL * abs(value):
                        problems.append(f"{where}: null statistic {value!r} is not a threshold")
        return problems

    def compare(self, reference: dict, curves: dict) -> list[str]:
        got = self.summary(curves)
        if list(got) != list(reference):
            return [f"reference detectors {list(reference)} != {list(got)}"]
        problems = []
        for kind, ref_points in reference.items():
            ref, out = np.array(ref_points), np.array(got[kind])
            if ref.shape != out.shape:
                problems.append(f"{kind}: {len(out)} ROC points, reference has {len(ref)}")
            elif not np.array_equal(ref[:, 1:], out[:, 1:]):
                problems.append(f"{kind}: sizes or powers differ from the reference")
            elif not np.allclose(out[:, 0], ref[:, 0], rtol=REFERENCE_RTOL, atol=0.0):
                problems.append(f"{kind}: thresholds differ from the reference by > {REFERENCE_RTOL}")
        return problems


@dataclass(frozen=True)
class CalibrateWorkload:
    """``calibrate_threshold`` for the SSS on a p x p torus; the output is the threshold."""

    name: str
    p: int
    rho: float
    sigma: float
    alpha: float
    reps: int
    setup_repeats: int
    certify_samples: int

    @property
    def reps_per_call(self) -> int:
        return self.reps

    def setup(self) -> gs.Graph:
        g = gs.gen_lattice(self.p, periodic=True)
        gs.graph_spectrum(g)
        return g

    def call(self, g: gs.Graph, seed: int) -> float:
        detector = gs.Detector("sss", rho=self.rho)
        return gs.calibrate_threshold(detector, g, self.sigma, self.alpha, self.reps, seed)

    def summary(self, threshold: float) -> float:
        return threshold

    def check(self, g: gs.Graph, seed: int, threshold: float, certify: bool) -> list[str]:
        if not (isinstance(threshold, float) and math.isfinite(threshold) and threshold > 0.0):
            return [f"threshold {threshold!r} is not a finite positive float"]
        if not certify:
            return []
        lap = gs.laplacian(g)
        problems = []
        for r in _spread(self.reps, 0, self.certify_samples):
            # the null draw calibrate_threshold documents for replicate r
            y = self.sigma * gs.replicate_rng(seed, r).standard_normal(g.n)
            result = gs.sss(gs.graph_spectrum(g), y, self.rho)
            problems += [
                f"sss replicate {r} of seed {seed}: {p}"
                for p in oracle.certify_sss(lap, y, self.rho, result)
            ]
        return problems

    def compare(self, reference: float, threshold: float) -> list[str]:
        if oracle.close(threshold, reference, REFERENCE_RTOL):
            return []
        return [f"threshold {threshold!r} differs from the reference {reference!r}"]


# Why each workload is here: see README.md in this directory.
WORKLOADS = {
    w.name: w
    for w in (
        RocWorkload(
            name="roc-bbt",
            config=replace(gs.preset_config("bbt-fig1"), reps_null=25, reps_alt=25),
            setup_repeats=40,
            certify_samples=4,
        ),
        RocWorkload(
            name="roc-torus-baselines",
            config=gs.ExperimentConfig(
                family="lattice",
                params={"p": 64, "periodic": True},
                delta=0.1,
                sigma=1.0,
                reps_null=50,
                reps_alt=50,
                detectors=("energy", "edge", "glr_unconstrained"),
            ),
            setup_repeats=40,
            certify_samples=4,
        ),
        CalibrateWorkload(
            name="calibrate-torus",
            p=48,
            rho=4.0 / 48,
            sigma=1.0,
            alpha=0.05,
            reps=100,
            setup_repeats=3,
            certify_samples=1,
        ),
    )
}


def clear_caches() -> None:
    """Forget every cached spectrum, so the next set-up is cold."""
    GRAPH_SPECTRUM.cache_clear()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())

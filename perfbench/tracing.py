"""In-memory spans around graphscan's public functions, wrapped from outside.

While installed, a :class:`Tracer` rebinds each public function listed in
``TARGETS`` in every graphscan module that holds it, so calls between modules
go through the wrapper too. A span records its name, start and end (ns, from
``time.perf_counter_ns``), the span that was open when it began, and the
request (the index of the end-to-end call) it belongs to; set-up spans have
request -1. Spans stay in memory until :meth:`Tracer.write`.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from functools import wraps

import numpy as np

import graphscan
import graphscan.bounds
import graphscan.cli

MODULES = (
    graphscan,
    graphscan.graphs,
    graphscan.spectral,
    graphscan.detectors,
    graphscan.simulate,
    graphscan.rng,
    graphscan.bounds,
    graphscan.cli,
)

# (defining module, public function, span name)
TARGETS = (
    (graphscan.graphs, "gen_bbt", "graphs.gen"),
    (graphscan.graphs, "gen_lattice", "graphs.gen"),
    (graphscan.graphs, "laplacian", "graphs.laplacian"),
    (graphscan.graphs, "is_connected", "graphs.is_connected"),
    (graphscan.spectral, "eig_sym", "spectral.eig_sym"),
    (graphscan.spectral, "chi_max", "spectral.chi_max"),
    (graphscan.spectral, "sss", "spectral.sss"),
    (graphscan.detectors, "sss_stat", "detectors.sss_stat"),
    (graphscan.detectors, "energy_stat", "detectors.energy_stat"),
    (graphscan.detectors, "edge_stat", "detectors.edge_stat"),
    (graphscan.detectors, "glr_unconstrained", "detectors.glr_unconstrained"),
    (graphscan.detectors, "graph_spectrum", "detectors.graph_spectrum"),
    (graphscan.detectors, "calibrate_threshold", "detectors.calibrate_threshold"),
    (graphscan.rng, "replicate_rng", "rng.replicate_rng"),
    (graphscan.simulate, "sample_observation", "simulate.sample_observation"),
    (graphscan.simulate, "run_roc", "simulate.run_roc"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, request]
        self.request = -1
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, open_[-1] if open_ else -1, self.request]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                open_.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore the originals."""
        saved = []
        try:
            for home, attr, name in TARGETS:
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for module in MODULES:
                    if getattr(module, attr, None) is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON: a list of span names and one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        with open(path, "w") as out:
            json.dump({"names": names, "columns": ["name", "start_ns", "end_ns", "parent", "request"],
                       "spans": rows}, out, separators=(",", ":"))


class SpanTable:
    """Durations, self times and child counts derived from a tracer's spans."""

    def __init__(self, spans: list[list]) -> None:
        self.name = np.array([s[0] for s in spans], dtype=object)
        self.dur_ns = np.array([s[2] - s[1] for s in spans], dtype=np.int64)
        self.parent = np.array([s[3] for s in spans], dtype=np.int64)
        self.request = np.array([s[4] for s in spans], dtype=np.int64)
        has_parent = self.parent >= 0
        child_ns = np.zeros(len(spans), dtype=np.int64)
        np.add.at(child_ns, self.parent[has_parent], self.dur_ns[has_parent])
        self.children = np.bincount(self.parent[has_parent], minlength=len(spans))
        self.self_ns = self.dur_ns - child_ns

    def select(self, name: str, timed_only: bool = True) -> np.ndarray:
        mask = self.name == name
        return mask & (self.request >= 0) if timed_only else mask


def _median(values_ns: np.ndarray, scale: float) -> float:
    return float(np.median(values_ns)) / scale if values_ns.size else 0.0


def layer_metrics(spans: list[list], timed_reps: int, rate_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, as (value, unit).

    Times are medians per call. A function the workload never calls reads 0.
    Counts and per-call times cover the timed calls only; the generator,
    Laplacian and eigendecomposition times include set-up, where they run.
    """
    t = SpanTable(spans)
    us, s = 1e3, 1e9
    sss = t.select("spectral.sss")
    chi_in_sss = t.select("spectral.chi_max") & np.isin(t.parent, np.flatnonzero(sss))
    lookups = t.select("detectors.graph_spectrum")
    return {
        "graphs.gen_s": (_median(t.dur_ns[t.select("graphs.gen", False)], s), "s"),
        "graphs.laplacian_s": (_median(t.dur_ns[t.select("graphs.laplacian", False)], s), "s"),
        "graphs.is_connected_calls_per_rep": (
            int(t.select("graphs.is_connected").sum()) / timed_reps, "count"),
        "graphs.is_connected_us": (_median(t.dur_ns[t.select("graphs.is_connected")], us), "us"),
        "spectral.eig_sym_s": (_median(t.dur_ns[t.select("spectral.eig_sym", False)], s), "s"),
        "spectral.chi_max_calls_per_sss": (
            int(chi_in_sss.sum()) / int(sss.sum()) if sss.any() else 0.0, "count"),
        "spectral.chi_max_us": (_median(t.dur_ns[t.select("spectral.chi_max")], us), "us"),
        "spectral.sss_us": (_median(t.dur_ns[sss], us), "us"),
        "spectral.sss_self_us": (_median(t.self_ns[sss], us), "us"),
        "detectors.sss_stat_us": (_median(t.dur_ns[t.select("detectors.sss_stat")], us), "us"),
        "detectors.energy_stat_us": (_median(t.dur_ns[t.select("detectors.energy_stat")], us), "us"),
        "detectors.edge_stat_us": (_median(t.dur_ns[t.select("detectors.edge_stat")], us), "us"),
        "detectors.glr_unconstrained_us": (
            _median(t.dur_ns[t.select("detectors.glr_unconstrained")], us), "us"),
        "detectors.graph_spectrum_lookup_us": (
            _median(t.dur_ns[lookups & (t.children == 0)], us), "us"),
        "detectors.graph_spectrum_misses": (int((lookups & (t.children > 0)).sum()), "count"),
        "rng.replicate_rng_us": (_median(t.dur_ns[t.select("rng.replicate_rng")], us), "us"),
        "simulate.sample_observation_us": (
            _median(t.dur_ns[t.select("simulate.sample_observation")], us), "us"),
        "simulate.run_roc_self_s": (_median(t.self_ns[t.select("simulate.run_roc")], s), "s"),
        "detectors.calibrate_threshold_self_s": (
            _median(t.self_ns[t.select("detectors.calibrate_threshold")], s), "s"),
        "trace.rate_ratio": (rate_ratio, "ratio"),
    }

"""Test statistics for the constant-versus-cluster alternative, plus calibration.

All statistics are invariant to adding a constant to the observation, so the
unknown background level never needs to be estimated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import Graph, is_connected, laplacian
from .rng import replicate_rng
from .spectral import Spectrum, _sss_values, center, eig_sym

__all__ = [
    "DETECTOR_KINDS",
    "RHO_KINDS",
    "Detector",
    "EmptyClassError",
    "energy_stat",
    "edge_stat",
    "glr_exact",
    "glr_unconstrained",
    "sss_stat",
    "graph_spectrum",
    "calibrate_threshold",
]

DETECTOR_KINDS = ("sss", "energy", "edge", "glr_exact", "glr_unconstrained")
# the constrained kinds, which take the cut-sparsity level rho
RHO_KINDS = ("sss", "glr_exact")

_GLR_EXACT_MAX_N = 22
_ENUM_CHUNK = 1 << 16


class EmptyClassError(ValueError):
    """No cluster satisfies the sparsity (and connectivity) constraints."""


def energy_stat(y: np.ndarray) -> float:
    """Squared norm of the centered observation."""
    ytilde = center(y)
    return float(ytilde @ ytilde)


def edge_stat(g: Graph, y: np.ndarray) -> float:
    """Largest absolute difference across an edge, ignoring edge weights."""
    y = np.asarray(y, dtype=float)
    if y.shape != (g.n,):
        raise ValueError(f"observation has length {y.size}, expected {g.n}")
    if not np.isfinite(y).all():
        raise ValueError("observation contains NaN or infinite values")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    eu, ev, _ = g.edge_arrays
    return float(np.abs(y[eu] - y[ev]).max())


def _induced_connected(g: Graph, members: frozenset[int]) -> bool:
    start = next(iter(members))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v, _ in g.neighbors(u):
            if v in members and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(members)


def glr_exact(g: Graph, y: np.ndarray, rho: float, require_connected: bool = False) -> float:
    """Exact generalized likelihood ratio by enumerating every feasible cluster.

    Maximizes (n / (|C| |C~|)) * (sum of centered y over C)^2 over nonempty
    proper subsets with cut sparsity at most rho; with ``require_connected``
    only subsets inducing a connected subgraph count. Exponential in n, so
    guarded at n <= 22.
    """
    if g.n > _GLR_EXACT_MAX_N:
        raise ValueError(f"exact enumeration limited to n <= {_GLR_EXACT_MAX_N}, got n={g.n}")
    rho = float(rho)
    if not (math.isfinite(rho) and rho > 0.0):
        raise ValueError(f"rho must be positive and finite, got {rho}")
    y = np.asarray(y, dtype=float)
    if y.shape != (g.n,):
        raise ValueError(f"observation has length {y.size}, expected {g.n}")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    ytilde = center(y)

    if require_connected:
        return _glr_enumerate_connected(g, ytilde, rho)
    return _glr_enumerate_vectorized(g, ytilde, rho)


def _glr_enumerate_vectorized(g: Graph, ytilde: np.ndarray, rho: float) -> float:
    n = g.n
    eu, ev, ew = g.edge_arrays
    best = -math.inf
    feasible = False
    for start in range(1, 2**n - 1, _ENUM_CHUNK):
        masks = np.arange(start, min(start + _ENUM_CHUNK, 2**n - 1), dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n)) & 1  # (chunk, n)
        sizes = bits.sum(axis=1)
        cut = (bits[:, eu] != bits[:, ev]).astype(float) @ ew
        sparsity = n * cut / (sizes * (n - sizes))
        ok = sparsity <= rho
        if not ok.any():
            continue
        feasible = True
        sums = bits[ok].astype(float) @ ytilde
        stats = n * sums**2 / (sizes[ok] * (n - sizes[ok]))
        best = max(best, float(stats.max()))
    if not feasible:
        raise EmptyClassError(f"no cluster has cut sparsity <= {rho}")
    return best


def _glr_enumerate_connected(g: Graph, ytilde: np.ndarray, rho: float) -> float:
    n = g.n
    best = -math.inf
    feasible = False
    for mask in range(1, 2**n - 1):
        members = frozenset(v for v in range(n) if mask >> v & 1)
        size = len(members)
        cut = sum(w for u, v, w in g.edges if (u in members) != (v in members))
        if n * cut / (size * (n - size)) > rho:
            continue
        if not _induced_connected(g, members):
            continue
        feasible = True
        total = float(sum(ytilde[v] for v in members))
        best = max(best, n * total**2 / (size * (n - size)))
    if not feasible:
        raise EmptyClassError(f"no connected cluster has cut sparsity <= {rho}")
    return best


def glr_unconstrained(y: np.ndarray) -> float:
    """GLR over all nonempty proper subsets, in O(n log n).

    For a fixed size k the optimal subset takes the k largest centered values
    (the complement case is covered because the objective is symmetric under
    complementation), so a single sorted prefix-sum sweep is exact.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 2:
        raise ValueError("need at least two observations")
    n = y.size
    ytilde = np.sort(center(y))[::-1]
    prefix = np.cumsum(ytilde)[:-1]
    k = np.arange(1, n)
    return float(np.max(n * prefix**2 / (k * (n - k))))


@lru_cache(maxsize=64)
def graph_spectrum(g: Graph) -> Spectrum:
    """Eigendecomposition of the graph Laplacian, cached per (immutable) graph."""
    return eig_sym(laplacian(g))


def sss_stat(g: Graph, y: np.ndarray, rho: float) -> float:
    """Spectral scan statistic on a graph; the spectrum is cached per graph.

    Equal bit for bit to ``sss(graph_spectrum(g), y, rho).value``.
    """
    return Detector("sss", rho=rho).statistic(g, y)


@dataclass(frozen=True)
class Detector:
    """A named statistic with its parameters.

    ``rho`` (positive and finite) is required for the kinds in :data:`RHO_KINDS`;
    ``require_connected`` only applies to glr_exact.
    """

    kind: str
    rho: float | None = None
    require_connected: bool = False

    def __post_init__(self) -> None:
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if self.kind in RHO_KINDS:
            if self.rho is None or not (math.isfinite(self.rho) and self.rho > 0.0):
                raise ValueError(f"detector {self.kind!r} requires a finite rho > 0")

    def statistic(self, g: Graph, y: np.ndarray) -> float:
        if self.kind == "sss":
            return float(self.statistics(g, np.asarray(y, dtype=float)[None])[0])
        if self.kind == "energy":
            return energy_stat(y)
        if self.kind == "edge":
            return edge_stat(g, y)
        if self.kind == "glr_exact":
            return glr_exact(g, y, self.rho, self.require_connected)
        return glr_unconstrained(y)

    def statistics(self, g: Graph, y: np.ndarray) -> np.ndarray:
        """The statistic of each row of an (R, n) block of observations.

        The SSS projects the block with one matrix product, so its values agree
        with :meth:`statistic` to rounding; other kinds go row by row.
        """
        if self.kind != "sss":
            return np.array([self.statistic(g, row) for row in y], dtype=float)
        if not is_connected(g):
            raise ValueError("graph must be connected")
        return _sss_values(graph_spectrum(g), y, self.rho)


def _replicate_statistics(detectors, g: Graph, means, sigma: float, seed: int) -> np.ndarray:
    """Statistics of replicates 0..len(means)-1, one column per detector.

    Replicate r observes ``means[r] + sigma * eps`` with eps drawn from the
    stream keyed by (seed, r), whatever the grouping of replicates into blocks.
    """
    rows = max(1, 2**16 // g.n)  # a block holds about 2**16 observation entries
    block = np.empty((min(rows, len(means)), g.n))
    stats = np.empty((len(means), len(detectors)))
    for start in range(0, len(means), rows):
        y = block[: len(means) - start]
        for r, row in enumerate(y, start):
            replicate_rng(seed, r).standard_normal(out=row)
            row *= sigma
            row += means[r]
        for j, detector in enumerate(detectors):
            stats[start : start + len(y), j] = detector.statistics(g, y)
    return stats


def calibrate_threshold(
    detector: Detector,
    g: Graph,
    sigma: float,
    alpha: float,
    reps: int,
    seed: int,
    threads: int | None = None,
) -> float:
    """Empirical (1 - alpha)-quantile of the statistic under the null.

    Simulates ``reps`` draws of pure noise (the statistics are invariant to the
    background level, so it is fixed at zero), and returns the order statistic
    with 1-based index ceil((1 - alpha) * reps). Replicate r draws from the
    stream keyed by (seed, r). ``threads`` has no effect; it is kept for callers.
    """
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    stats = _replicate_statistics((detector,), g, [0.0] * reps, float(sigma), seed)
    index = math.ceil((1.0 - alpha) * reps)
    return float(np.sort(stats[:, 0])[index - 1])

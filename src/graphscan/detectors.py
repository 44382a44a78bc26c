"""Test statistics for the constant-versus-cluster alternative, plus calibration.

All statistics are invariant to adding a constant to the observation, so the
unknown background level never needs to be estimated. Each kind is defined
once, as a kernel that scores an (R, n) block of observations; the public
functions score one observation as a one-row block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._check import integer, observation, real, require
from .graphs import Graph, _cut_weights, _sparsity, is_connected, laplacian
from .rng import _replicate_streams
from .spectral import (
    _BLOCK_ENTRIES,
    _OVERFLOWS,
    _UNDERFLOWS,
    _WORKSPACE,
    Spectrum,
    _row_chunks,
    _row_means,
    _sss_order_statistic,
    _sss_values,
    eig_sym,
)

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

_GLR_EXACT_MAX_N = 22


class EmptyClassError(ValueError):
    """No cluster satisfies the sparsity (and connectivity) constraints."""


@lru_cache(maxsize=64)
def graph_spectrum(g: Graph) -> Spectrum:
    """Spectrum of the graph Laplacian, cached per (immutable) graph.

    A graph that records Cartesian factors (lattices, tori, Kronecker
    products) gets the product of its factors' spectra, and a recorded
    balanced binary tree the spectrum of its level blocks, scaled by the
    weight all its edges share, with no n x n matrix; any other graph gets a
    dense eigendecomposition of its Laplacian.
    """
    if g._factors:
        return Spectrum.product(graph_spectrum(f) for f in g._factors)
    if g._depth:
        return Spectrum.tree(g._depth, float(g.w[0]))
    return eig_sym(laplacian(g))


# Kernels: (detector, graph, checked (R, n) chunk of a float block) -> (R,) values.


def _sss_kernel(det: Detector, g: Graph, y: np.ndarray) -> np.ndarray:
    return _sss_values(graph_spectrum(g), y, det.rho)


def _energy_kernel(det: Detector, g: Graph, y: np.ndarray) -> np.ndarray:
    # the stacked product takes one dot product per row, which keeps the
    # rounding of a single observation in any block
    centred = np.subtract(y, _row_means(y)[:, None], out=_WORKSPACE.array("a", y.shape))
    return (centred[:, None, :] @ centred[:, :, None])[:, 0, 0]


def _edge_kernel(det: Detector, g: Graph, y: np.ndarray) -> np.ndarray:
    # a gather per row: an (R, m) gather is slower once rows are long
    return np.array([np.abs(row[g.eu] - row[g.ev]).max() for row in y])


def _glr_unconstrained_kernel(det: Detector, g: Graph, y: np.ndarray) -> np.ndarray:
    # For a fixed size k the best cluster takes the k largest centred values
    # (complements score the same), so one sorted prefix-sum sweep is exact.
    # The negated values sort ascending into that order, and the sign cancels
    # in the square; they are sorted and summed in place in the workspace.
    n = y.shape[1]
    k = np.arange(1, n)
    swept = np.subtract(_row_means(y)[:, None], y, out=_WORKSPACE.array("a", y.shape))
    swept.sort(axis=1)
    prefix = np.cumsum(swept, axis=1, out=swept)[:, :-1]
    np.square(prefix, out=prefix)
    prefix *= n
    prefix /= k * (n - k)
    return prefix.max(axis=1)


def _connected_masks(bits: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """Whether each 0/1 row of ``bits`` induces a connected subgraph.

    A frontier grows from each row's lowest vertex along the boolean
    ``adjacency`` matrix and is kept inside the row; n - 1 rounds reach every
    vertex of a connected row.
    """
    reached = np.zeros_like(bits)
    reached[np.arange(len(bits)), bits.argmax(axis=1)] = 1.0
    for _ in range(bits.shape[1] - 1):
        grown = bits * (reached + reached @ adjacency > 0.0)
        if np.array_equal(grown, reached):
            break
        reached = grown
    return (reached == bits).all(axis=1)


def _glr_exact_kernel(det: Detector, g: Graph, y: np.ndarray) -> np.ndarray:
    # every bipartition is the bit mask of its side without vertex n - 1 (the other side
    # scores the same), enumerated once per chunk and scored for all rows with one
    # product, holding at most _BLOCK_ENTRIES cluster sums
    n = g.n
    if n > _GLR_EXACT_MAX_N:
        raise ValueError(f"exact enumeration limited to n <= {_GLR_EXACT_MAX_N}, got n={n}")
    if not len(y):
        return np.empty(0)
    adjacency = laplacian(g) < 0.0 if det.require_connected else None
    ytilde = y - _row_means(y)[:, None]
    best = np.full(len(y), -math.inf)  # stays -inf while no cluster is feasible
    chunk = max(1, _BLOCK_ENTRIES // len(y))
    for start in range(1, 2 ** (n - 1), chunk):
        masks = np.arange(start, min(start + chunk, 2 ** (n - 1)), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(float)  # (chunk, n)
        sizes = bits.sum(axis=1)
        ok = _sparsity(n, _cut_weights(g, bits), sizes) <= det.rho
        if det.require_connected:
            sides = bits[ok]
            ok[ok] = _connected_masks(sides, adjacency) & _connected_masks(1.0 - sides, adjacency)
        if ok.any():
            sums = bits[ok] @ ytilde.T  # (clusters, rows)
            scores = n * sums**2 / (sizes[ok] * (n - sizes[ok]))[:, None]
            best = np.maximum(best, scores.max(axis=0))
    if best[0] == -math.inf:
        qualifier = "connected " if det.require_connected else ""
        raise EmptyClassError(f"no {qualifier}cluster has cut sparsity <= {det.rho}")
    return best


# kind -> (kernel, takes rho, needs a connected graph); the energy and
# unconstrained-GLR kernels ignore the graph, so their one-off functions pass none
_KINDS = {
    "sss": (_sss_kernel, True, True),
    "energy": (_energy_kernel, False, False),
    "edge": (_edge_kernel, False, True),
    "glr_exact": (_glr_exact_kernel, True, True),
    "glr_unconstrained": (_glr_unconstrained_kernel, False, False),
}
DETECTOR_KINDS = tuple(_KINDS)
# the constrained kinds, which take the cut-sparsity level rho
RHO_KINDS = tuple(kind for kind, (_, takes_rho, _) in _KINDS.items() if takes_rho)


@dataclass(frozen=True)
class Detector:
    """A named statistic with its parameters.

    ``rho`` (a positive and finite number, not a bool) is required for the
    kinds in :data:`RHO_KINDS` and refused for the others;
    ``require_connected`` may be true only for glr_exact, whose class it
    restricts to the bipartitions into two connected induced subgraphs.
    """

    kind: str
    rho: float | None = None
    require_connected: bool = False

    def __post_init__(self) -> None:
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if require("require_connected", self.require_connected, bool) and self.kind != "glr_exact":
            raise ValueError(f"require_connected applies only to glr_exact, not to {self.kind!r}")
        if self.kind in RHO_KINDS:
            real("rho", self.rho, "positive")
        elif self.rho is not None:
            raise ValueError(f"detector {self.kind!r} takes no rho, got {self.rho!r}")

    def statistic(self, g: Graph, y: np.ndarray) -> float:
        """The statistic of one observation, a vector of length ``g.n``, scored as a one-row block."""
        return float(self._scored(g, self._checked(g, y, rows=False)[None])[0])

    def statistics(self, g: Graph, y: np.ndarray) -> np.ndarray:
        """The statistic of each row of an (R, n) block of observations, scored chunk by chunk.

        Rows must have length ``g.n`` >= 2 and finite entries; the kinds that
        use the edges also need a connected graph. The SSS and glr_exact score
        each chunk (up to 2**16 entries, ``spectral._row_chunks``) with one
        matrix product, so their values can differ from one-row blocks in the
        last digits; energy, edge and glr_unconstrained give every row the
        same bits in any block. A constant row scores exactly 0, however
        large. A value that overflows a double is refused, as is any row
        whose sum overflows. A value below the normal doubles is refused when
        its row is not constant but all its deviations from the mean square
        below them, so that the value has lost its digits: every kind but
        glr_exact is positive on a row that is not constant, and glr_exact
        may be exactly 0 on a row of normal scale, which is returned.
        """
        return self._scored(g, self._checked(g, y))

    def _checked(self, g: Graph, y, rows: bool = True) -> np.ndarray:
        """``y`` as a float block (vector, if not ``rows``) fit for the statistic on ``g``; raises otherwise."""
        self._check_graph(g)
        return observation(y, g.n, rows)

    def _check_graph(self, g: Graph) -> None:
        """Refuses a graph of fewer than two vertices, and for the kinds that use the edges one not connected."""
        if g.n < 2:
            raise ValueError("need at least two vertices")
        if _KINDS[self.kind][2] and not is_connected(g):
            raise ValueError("graph must be connected")

    def _scored(self, g: Graph | None, y: np.ndarray) -> np.ndarray:
        """The statistic of each row of the checked (R, n) block ``y`` on ``g``; refuses a value out of range."""
        kernel = _KINDS[self.kind][0]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            values = np.concatenate([kernel(self, g, chunk) for chunk in _row_chunks(y, y.shape[1])])
        if not np.isfinite(values).all():
            raise ValueError(_OVERFLOWS.format(self.kind))
        small = values < np.finfo(float).tiny
        if small.any():
            rows = y[small]
            deviation = np.abs(rows - _row_means(rows)[:, None]).max(axis=1)
            if ((deviation > 0.0) & (deviation < 2.0**-511)).any():
                raise ValueError(_UNDERFLOWS.format(self.kind))
        return values


def _graph_free_statistic(kind: str, y) -> float:
    """The statistic of a kind that uses no edges on one observation, read once and scored with no graph."""
    y = observation(y)
    if y.size < 2:
        raise ValueError("need at least two vertices")
    return float(Detector(kind)._scored(None, y[None])[0])


def energy_stat(y: np.ndarray) -> float:
    """Squared norm of the centered observation."""
    return _graph_free_statistic("energy", y)


def edge_stat(g: Graph, y: np.ndarray) -> float:
    """Largest absolute difference across an edge, ignoring edge weights."""
    return Detector("edge").statistic(g, y)


def glr_exact(g: Graph, y: np.ndarray, rho: float, require_connected: bool = False) -> float:
    """Exact generalized likelihood ratio by enumerating every feasible cluster.

    Maximizes (n / (|C| |C~|)) * (sum of centered y over C)^2 over nonempty
    proper subsets with cut sparsity at most rho, each computed as
    :func:`cut_sparsity` computes it, so the class is exactly the subsets C
    with ``cut_sparsity(g, C) <= rho``. A subset and its complement score the
    same, so each bipartition is scored once, through its side without vertex
    n - 1. With ``require_connected`` a bipartition counts only when both
    sides induce connected subgraphs, the paper's alternative. Exponential in
    n, so guarded at n <= 22.
    """
    return Detector("glr_exact", rho=rho, require_connected=require_connected).statistic(g, y)


def glr_unconstrained(y: np.ndarray) -> float:
    """GLR over all nonempty proper subsets, in O(n log n) by a sorted prefix-sum sweep."""
    return _graph_free_statistic("glr_unconstrained", y)


def sss_stat(g: Graph, y: np.ndarray, rho: float) -> float:
    """Spectral scan statistic on a graph; the spectrum is cached per graph.

    Equal bit for bit to ``sss(graph_spectrum(g), y, rho).value``.
    """
    return Detector("sss", rho=rho).statistic(g, y)


def _replicate_blocks(g: Graph, runs, sigma: float, seed: int):
    """Blocks of the replicates of ``runs``: yields each block's first index and its (R, n) rows.

    ``runs`` is a sequence of (mean, count) pairs, whose replicates are
    numbered run after run from 0. Replicate r observes its run's mean plus
    ``sigma * eps``, with eps drawn from the stream keyed by (seed, r),
    whatever the grouping of replicates into blocks. A block is scaled at
    once (not at all when sigma is 1), and each run's rows in it get the
    run's mean added at once (not at all when it is zero). Each block is
    checked once, as it is drawn, by :func:`graphscan._check.observation`,
    which refuses a mean plus noise that overflows. The thread's
    workspace buffer "noise" holds every block, so each must be used before
    the next, and before the thread draws another run's blocks.
    """
    total = sum(count for _, count in runs)
    rows = max(1, _BLOCK_ENTRIES // g.n)
    block = _WORKSPACE.array("noise", (min(rows, total), g.n))
    streams = _replicate_streams(seed, range(total))
    for start in range(0, total, rows):
        y = block[: total - start]
        for row in y:
            next(streams).standard_normal(out=row)
        if sigma != 1.0:
            try:
                with np.errstate(over="raise"):
                    y *= sigma
            except FloatingPointError:
                raise ValueError(f"sigma must be small enough for finite noise, got {sigma}") from None
        first = -start  # the run's first replicate, counted from the block's
        with np.errstate(over="ignore"):  # an overflow is refused by the block's check
            for mean, count in runs:
                if np.any(mean):
                    y[max(first, 0) : max(first + count, 0)] += mean
                first += count
        yield start, observation(y, g.n, rows=True)


def _replicate_statistics(detectors, g: Graph, runs, sigma: float, seed: int) -> np.ndarray:
    """Statistics of the replicates of ``runs`` (see :func:`_replicate_blocks`), one column per detector.

    Each detector checks the graph once, before any block is drawn.
    """
    for detector in detectors:
        detector._check_graph(g)
    stats = np.empty((sum(count for _, count in runs), len(detectors)))
    for start, y in _replicate_blocks(g, runs, sigma, seed):
        for j, detector in enumerate(detectors):
            stats[start : start + len(y), j] = detector._scored(g, y)
    return stats


def calibrate_threshold(
    detector: Detector, g: Graph, sigma: float, alpha: float, reps: int, seed: int
) -> float:
    """Empirical (1 - alpha)-quantile of the statistic under the null.

    Simulates ``reps`` draws of pure noise (the statistics are invariant to the
    background level, so it is fixed at zero), and returns the order statistic
    with 1-based index ceil((1 - alpha) * reps). Replicate r draws from the
    stream keyed by (seed, r). For the SSS, each replicate is solved only as
    far as it takes to tell whether its value can be that order statistic
    (``spectral._sss_order_statistic`` bounds every replicate at the ends of
    the KKT multiplier path, refines the bounds of those in contention once,
    a chunk at a time, at a few points along it, and solves the few left by
    the solver :func:`sss` uses), so the threshold is the one that solving
    every replicate in full and sorting would give, bit for bit. ``reps`` and
    ``seed`` must be integers, and ``sigma`` and ``alpha`` numbers; none may
    be a bool.
    """
    reps, seed = integer("reps", reps, 100), integer("seed", seed)
    alpha = real("alpha", alpha, "(0, 1)")
    sigma = real("sigma", sigma, "nonnegative")
    index = math.ceil((1.0 - alpha) * reps)
    if detector.kind == "sss":
        detector._check_graph(g)  # before its spectrum is computed
        blocks = (y for _, y in _replicate_blocks(g, ((0.0, reps),), sigma, seed))
        return _sss_order_statistic(graph_spectrum(g), blocks, detector.rho, index, reps)
    stats = _replicate_statistics((detector,), g, ((0.0, reps),), sigma, seed)
    return float(np.sort(stats[:, 0])[index - 1])

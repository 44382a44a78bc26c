"""Closed-form detectability quantities from the graph spectrum.

Rate expressions carry no asymptotic constants: they are the quantities inside
the growth conditions, useful for comparing topologies and sizes, not absolute
detection guarantees. Every rho and sigma here must be positive and finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._check import integer, real
from .spectral import Spectrum, _connected_lambdas

__all__ = [
    "BoundsReport",
    "spectral_snr_bound",
    "truncated_bound",
    "null_threshold",
    "naive_bounds",
    "noncentrality",
    "bbt_lambda2_bound",
    "bounds_report",
    "format_report",
]


@dataclass(frozen=True)
class BoundsReport:
    """All detectability quantities for one (graph, rho, sigma) instance."""

    n: int
    rho: float
    spectral_sum_bound: float
    truncated_bound: float | None
    truncated_k: int | None
    energy_bound: float
    edge_bound: float
    null_threshold: float
    confidence: float


def spectral_snr_bound(spectrum: Spectrum, rho: float) -> float:
    """sqrt(sum over i >= 2 of min(1, rho / lambda_i)).

    The SNR must grow faster than this for the scan statistic to separate the
    hypotheses; it never exceeds sqrt(n - 1), with equality once rho >= lambda_n.
    """
    rho = real("rho", rho, "positive")
    lambdas = _connected_lambdas(spectrum)
    return math.sqrt(float((np.minimum(lambdas, rho) / lambdas).sum()))  # min(1, rho/lambda), with no overflow


def truncated_bound(spectrum: Spectrum, rho: float) -> tuple[float, int]:
    """min over k with lambda_{k+1} > rho of sqrt(k + (n-k) rho / lambda_{k+1}).

    Returns the bound and the minimizing k (smallest on ties); always at least
    :func:`spectral_snr_bound` on the same inputs. Raises when no eigenvalue
    exceeds rho.
    """
    rho = real("rho", rho, "positive")
    lambdas = _connected_lambdas(spectrum)
    admissible = lambdas > rho  # lambda_{k+1} > rho, for k = 1..n-1 in 1-based spectrum order
    if not admissible.any():
        raise ValueError(f"no admissible k: largest eigenvalue {lambdas[-1]} <= rho={rho}")
    k = np.arange(1, spectrum.n)[admissible]
    values = np.sqrt(k + (spectrum.n - k) * rho / lambdas[admissible])
    best = int(values.argmin())  # the first minimum, so the smallest k on ties
    return float(values[best]), int(k[best])


def null_threshold(spectrum: Spectrum, rho: float, sigma: float, conf: float) -> float:
    """Analytic threshold with false-alarm probability at most ``conf``.

    (sqrt(2 sigma^2 sum min(1, rho/lambda_i)) + sqrt(2 sigma^2 log(2/conf)))^2;
    the scan statistic exceeds this under the null with probability <= conf.
    Sigma multiplies each root rather than being squared, so that a sigma
    whose threshold exceeds the doubles is refused by name.
    """
    conf = real("conf", conf, "(0, 1)")
    sigma = real("sigma", sigma, "positive")
    expectation = math.sqrt(2.0) * sigma * spectral_snr_bound(spectrum, rho)
    deviation = math.sqrt(2.0 * (math.log(2.0) - math.log(conf))) * sigma
    threshold = (expectation + deviation) * (expectation + deviation)
    if not math.isfinite(threshold):
        raise ValueError(f"sigma must be small enough for a finite threshold, got {sigma}")
    return threshold


def naive_bounds(n: int, max_cluster: int) -> tuple[float, float]:
    """Rate expressions for the energy and edge-threshold detectors.

    Returns (sqrt(n - 1), sqrt(max_cluster * log n)) for n >= 2, where
    ``max_cluster`` is the largest cluster size (1 to n//2) in the class under test.
    """
    n = integer("n", n, 2)
    max_cluster = integer("max_cluster", max_cluster, 1, n // 2)
    return math.sqrt(n - 1.0), math.sqrt(max_cluster * math.log(n))


def noncentrality(delta: float, sigma: float, cluster_size: int, n: int) -> float:
    """Noncentrality (delta/sigma)^2 |C| (n - |C|) / n of the oracle likelihood ratio.

    ``cluster_size`` must be in 1..n-1. A noncentrality beyond the doubles is
    refused, naming delta and sigma.
    """
    sigma, delta, n = real("sigma", sigma, "positive"), real("delta", delta), integer("n", n)
    cluster_size = integer("cluster_size", cluster_size, 1, n - 1)
    # neither product overflows unless the result does
    ratio = delta / sigma
    value = ratio * (ratio * (cluster_size * (n - cluster_size) / n))
    if not math.isfinite(value):
        raise ValueError(f"delta/sigma must be small enough for a finite noncentrality, got {delta}/{sigma}")
    return value


def bbt_lambda2_bound(depth: int) -> float:
    """Upper bound 2**depth + 105*[depth < 4] on 1/lambda_2 of the balanced binary tree, for depth >= 1."""
    depth = integer("depth", depth, 1)
    return float(2**depth + (105 if depth < 4 else 0))


def bounds_report(
    spectrum: Spectrum,
    rho: float,
    sigma: float,
    conf: float,
    max_cluster: int | None = None,
) -> BoundsReport:
    """Assemble every bound for one instance; truncated entries are None when
    no eigenvalue exceeds rho."""
    n = spectrum.n
    if max_cluster is None:
        max_cluster = n // 2
    energy, edge = naive_bounds(n, max_cluster)
    try:
        trunc_value, trunc_k = truncated_bound(spectrum, rho)
    except ValueError:
        trunc_value, trunc_k = None, None
    return BoundsReport(
        n=n,
        rho=float(rho),
        spectral_sum_bound=spectral_snr_bound(spectrum, rho),
        truncated_bound=trunc_value,
        truncated_k=trunc_k,
        energy_bound=energy,
        edge_bound=edge,
        null_threshold=null_threshold(spectrum, rho, sigma, conf),
        confidence=float(conf),
    )


def format_report(report: BoundsReport) -> str:
    """Serialize a report as ``key = value`` lines."""
    def fmt(value) -> str:
        if value is None:
            return "none"
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    return "".join(f"{f.name} = {fmt(getattr(report, f.name))}\n" for f in fields(report))

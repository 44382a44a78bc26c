"""Independent reference computations for the benchmark's output checks.

Nothing here calls graphscan's statistics: the baselines are recomputed with
plain numpy, and a scan-statistic value is certified from both sides, by the
primal value of its witness and by a dense dual bound.
"""
from __future__ import annotations

import numpy as np

# Relative tolerance for a baseline statistic against its recomputation.
STAT_RTOL = 1e-12
# Relative slack allowed on either side of an SSS certificate, and on the
# witness's feasibility; the solver's own error is about 1e-11 relative.
CERT_RTOL = 1e-9
# Largest accepted primal-dual gap, relative to the value.
CERT_MAX_GAP = 1e-7


def baseline(kind: str, edges, y: np.ndarray) -> float:
    """A baseline statistic of ``y`` on a graph with edge list ``edges``."""
    if kind == "energy":
        return float(y.size * np.var(y))
    if kind == "edge":
        e = np.array([(u, v) for u, v, _ in edges])
        return float(np.abs(y[e[:, 0]] - y[e[:, 1]]).max())
    if kind == "glr_unconstrained":
        # max over 1 <= k < n of n * S_k**2 / (k (n - k)), S_k the sum of the k smallest
        n = y.size
        low = np.cumsum(np.sort(y - y.mean()))[:-1]
        k = np.arange(1, n)
        return float((n * low**2 / (k * (n - k))).max())
    raise ValueError(f"no reference for detector {kind!r}")


def close(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * max(abs(reference), 1e-300)


def certify_sss(lap: np.ndarray, y: np.ndarray, rho: float, result) -> list[str]:
    """Problems with an SSS result, checked against the dense Laplacian ``lap``.

    The witness must be feasible (unit ball, mean zero, x'Lx <= rho) and its
    primal value (x'y~)**2 must sit at or below the reported value. The dual
    bound max(0, lambda_max(y~y~' - nu L)) + nu*rho at the reported ``nu_star``,
    from a dense ``eigvalsh``, must sit at or above it.
    """
    yt = y - y.mean()
    value, nu, x = float(result.value), float(result.nu_star), np.asarray(result.witness)
    scale = max(abs(value), 1e-300)
    problems = []
    if not np.isfinite(value) or value < 0.0:
        problems.append(f"sss value {value!r} is not a finite nonnegative number")
        return problems
    if float(x @ x) > 1.0 + CERT_RTOL:
        problems.append(f"witness norm**2 {float(x @ x)!r} exceeds 1")
    if abs(float(x.sum())) > CERT_RTOL * np.sqrt(x.size):
        problems.append(f"witness sum {float(x.sum())!r} is not zero")
    if float(x @ lap @ x) > rho * (1.0 + CERT_RTOL):
        problems.append(f"witness x'Lx {float(x @ lap @ x)!r} exceeds rho {rho!r}")
    primal = float(x @ yt) ** 2
    dual = max(0.0, float(np.linalg.eigvalsh(np.outer(yt, yt) - nu * lap)[-1])) + nu * rho
    if primal > value + CERT_RTOL * scale:
        problems.append(f"witness primal value {primal!r} is above the statistic {value!r}")
    if dual < value - CERT_RTOL * scale:
        problems.append(f"dual bound {dual!r} at nu={nu!r} is below the statistic {value!r}")
    if dual - primal > CERT_MAX_GAP * scale:
        problems.append(f"primal-dual gap {dual - primal!r} exceeds {CERT_MAX_GAP} x {value!r}")
    return problems

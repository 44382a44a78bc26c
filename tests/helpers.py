"""Shared test utilities: random instances, brute-force oracles and a dense SSS certificate."""
from __future__ import annotations

import math

import numpy as np

from graphscan import Graph, SssResult, build_graph, center, laplacian


def random_connected_graph(rng: np.random.Generator, max_n: int = 12, min_n: int = 2) -> Graph:
    """Random spanning tree plus extra edges, with weights in [0.5, 2]."""
    n = int(rng.integers(min_n, max_n + 1))
    order = rng.permutation(n)
    edges = []
    for i in range(1, n):
        u = int(order[i])
        v = int(order[int(rng.integers(0, i))])
        edges.append((min(u, v), max(u, v), float(rng.uniform(0.5, 2.0))))
    have = {(u, v) for u, v, _ in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in have and rng.random() < 0.3:
                edges.append((u, v, float(rng.uniform(0.5, 2.0))))
    return build_graph(n, edges)


def draw_rho(rng: np.random.Generator, eigenvalues: np.ndarray) -> float:
    """Log-uniform rho between lambda_2 / 4 and 4 * lambda_n."""
    lo = math.log(eigenvalues[1] / 4.0)
    hi = math.log(4.0 * eigenvalues[-1])
    return float(np.exp(rng.uniform(lo, hi)))


def induced_connected(g: Graph, members) -> bool:
    """Whether ``members`` (nonempty) induce a connected subgraph, by depth-first search."""
    members = set(members)
    start = next(iter(members))
    seen, stack = {start}, [start]
    while stack:
        for v, _ in g.neighbors(stack.pop()):
            if v in members and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == members


def glr_brute_force(
    g: Graph, y: np.ndarray, rho: float = math.inf, require_connected: bool = False
) -> float:
    """GLR by explicit subset enumeration; raises on an empty feasible class.

    With ``require_connected`` only subsets that induce a connected subgraph
    count; a bipartition is then evaluated through each side that qualifies.
    Otherwise the statistic of a bipartition is the same number for either
    side, so each bipartition is evaluated once through its positive-sum side
    (centered sums over complements agree only up to rounding). Sums accumulate
    in descending value order, the matched-rounding convention for comparing
    against prefix-sum scans.
    """
    n = g.n
    ytilde = center(y)
    best = None
    for mask in range(1, 2**n - 1):
        members = [v for v in range(n) if mask >> v & 1]
        k = len(members)
        if math.isfinite(rho):
            cut = sum(w for u, v, w in g.edges if (mask >> u & 1) != (mask >> v & 1))
            if n * cut / (k * (n - k)) > rho:
                continue
        if require_connected and not induced_connected(g, members):
            continue
        total = 0.0
        for value in sorted((ytilde[v] for v in members), reverse=True):
            total += value
        if total < 0.0 and not require_connected:
            continue  # the complement carries this bipartition
        stat = n * total**2 / (k * (n - k))
        if best is None or stat > best:
            best = stat
    if best is None:
        raise ValueError("empty feasible class")
    return best


def sss_certificate(g: Graph, y: np.ndarray, rho: float, result: SssResult) -> tuple[bool, float, float]:
    """Dense two-sided check of a scan-statistic result against ``laplacian(g)``.

    Returns (feasible, primal, dual). ``feasible`` says the witness x satisfies
    ||x|| <= 1, sum(x) = 0 and x'Lx <= rho, each to 1e-9 relative; ``primal``
    is its value (x'y~)**2, and ``dual`` is the weak-duality bound
    max(0, lambda_max(y~y~' - nu* L)) + nu* rho from a dense ``eigvalsh`` at
    the reported multiplier. A correct result has primal <= value <= dual.
    """
    lap = laplacian(g)
    yt = y - y.mean()
    x, nu = result.witness, result.nu_star
    feasible = (
        float(x @ x) <= 1.0 + 1e-9
        and abs(float(x.sum())) <= 1e-9 * math.sqrt(g.n)
        and float(x @ lap @ x) <= rho * (1.0 + 1e-9)
    )
    primal = float(x @ yt) ** 2
    dual = max(0.0, float(np.linalg.eigvalsh(np.outer(yt, yt) - nu * lap)[-1])) + nu * rho
    return feasible, primal, dual

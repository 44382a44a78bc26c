"""Shared test utilities: random instances, reference loops, brute-force oracles and a dense SSS certificate."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from graphscan import (
    Graph,
    Spectrum,
    SssResult,
    build_graph,
    center,
    gen_bbt,
    gen_kron_multiscale,
    gen_lattice,
    laplacian,
    two_triangles,
)


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


# random connected graphs, trees, tori and Kronecker products, drawn from a generator
FAMILIES = {
    "random": lambda rng: random_connected_graph(rng, min_n=3),
    "bbt": lambda rng: gen_bbt(int(rng.integers(1, 6))),
    "torus": lambda rng: gen_lattice(int(rng.integers(3, 9)), periodic=True),
    "kron": lambda rng: gen_kron_multiscale(two_triangles(), int(rng.integers(1, 3))),
}


def draw_rho(rng: np.random.Generator, eigenvalues: np.ndarray) -> float:
    """Log-uniform rho between lambda_2 / 4 and 4 * lambda_n."""
    lo = math.log(eigenvalues[1] / 4.0)
    hi = math.log(4.0 * eigenvalues[-1])
    return float(np.exp(rng.uniform(lo, hi)))


def order_index(alpha: float, reps: int) -> int:
    """1-based index of the calibrated order statistic: ceil((1 - alpha) * reps), exact for the decimal
    ``repr(alpha)`` prints, where the float product can round past an integer (0.99 and 100 give 1)."""
    return math.ceil((1 - Fraction(repr(alpha))) * reps)


def neighbors(g: Graph, v: int) -> tuple[tuple[int, float], ...]:
    """Adjacent (vertex, weight) pairs of ``v``, in edge order."""
    return tuple((b if a == v else a, w) for a, b, w in g.edges if v in (a, b))


def induced_connected(g: Graph, members) -> bool:
    """Whether ``members`` (nonempty) induce a connected subgraph, by depth-first search."""
    members = set(members)
    start = next(iter(members))
    seen, stack = {start}, [start]
    while stack:
        for v, _ in neighbors(g, stack.pop()):
            if v in members and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == members


def glr_brute_force(
    g: Graph, y: np.ndarray, rho: float = math.inf, require_connected: bool = False
) -> float:
    """GLR by explicit subset enumeration; raises on an empty feasible class.

    With ``require_connected`` only bipartitions whose two sides each induce a
    connected subgraph count, and each is evaluated through both sides.
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
        if require_connected and not (
            induced_connected(g, members) and induced_connected(g, set(range(n)) - set(members))
        ):
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


# every family's canonical cluster over a sweep of sizes: (family, config keys)
CLUSTER_SWEEP = (
    [("bbt", {"depth": depth}) for depth in range(2, 12)]
    + [("lattice", {"p": p}) for p in range(2, 40)]
    + [("lattice", {"p": p, "periodic": True}) for p in range(3, 40)]
    + [("kron", {"levels": levels}) for levels in range(1, 5)]
)


def canonical_cluster_reference(family: str, params: dict) -> frozenset:
    """The default canonical cluster of a family's config keys, as first defined.

    bbt: vertex 3 and every vertex whose parent (v - 1) // 2 is in the cluster; lattice (grid or
    torus): the top-left (p//2) x (p//2) square; kron: the vertices whose coarsest-scale coordinate
    v // 6**(levels - 1) in the two-triangle base is 0, 1 or 2.
    """
    if family == "bbt":
        members = {3}
        for v in range(4, 2 ** (params["depth"] + 1) - 1):
            if (v - 1) // 2 in members:
                members.add(v)
        return frozenset(members)
    if family == "lattice":
        half = params["p"] // 2
        return frozenset(r * params["p"] + c for r in range(half) for c in range(half))
    block = 6 ** (params["levels"] - 1)
    return frozenset(v for v in range(6 * block) if v // block in (0, 1, 2))


def dense_basis(spectrum: Spectrum) -> np.ndarray:
    """The n x n basis of any form of spectrum: the constant vector, then column i the expansion of e_i.

    Column i belongs to ``spectrum.eigenvalues[i]``; for a connected graph the
    first column is the eigenvector of eigenvalue 0 up to sign.
    """
    n = spectrum.n
    columns = [np.full(n, 1.0 / math.sqrt(n))]
    columns += [spectrum.expand(unit) for unit in np.eye(n - 1)]
    return np.column_stack(columns)


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


def secular_inputs(rng: np.random.Generator, count: int, zero_every: int):
    """``count`` random (c, lambdas, nu) for ``chi_max``, with one entry of every ``zero_every``-th c set to 0.

    lambdas are 1 to 13 ascending values in [0.01, 5], c standard normal and nu in [0, 10].
    """
    for i in range(count):
        m = int(rng.integers(1, 14))
        lam = np.sort(rng.uniform(0.01, 5.0, m))
        c = rng.standard_normal(m)
        if i % zero_every == 0:
            c[rng.integers(0, m)] = 0.0  # exercise deflation
        yield c, lam, float(rng.uniform(0.0, 10.0))


# the refusals of Graph's edge checks, in the order an offending edge reports them
EDGE_REFUSALS = (
    "edge ({u},{v}) has a non-integer vertex id",
    "edge ({u},{v}) out of range for n={n}",
    "self-loop at vertex {u}",
    "duplicate edge ({u},{v})",
    "edge ({u},{v}) has weight {w}, not finite and positive",
)


def edge_refusal_lexsort(n: int, eu, ev, w) -> tuple[str, int] | None:
    """The refusal ``Graph(n, eu, ev, w)`` must raise, by every check on every edge and a lexsort.

    Each edge gets all five checks; a pair is a duplicate when a stable
    lexsort of (min, max) ids puts an earlier edge with the same ids just
    before it. Returns the message and index of the first edge failing any
    check, naming its first failure, or None when every edge passes.
    """
    ends, w = np.array((eu, ev)), np.array(w, dtype=float)
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    order = np.lexsort((hi, lo))
    with np.errstate(invalid="ignore"):  # inf - inf between two infinite ids
        same = (np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0)
    duplicate = np.zeros(w.size, dtype=bool)
    duplicate[order[1:][same]] = True
    failed = np.array((
        ~(np.isfinite(ends) & (ends == np.round(ends))).all(axis=0),
        (lo < 0) | (hi >= n),
        lo == hi,
        duplicate,
        ~(np.isfinite(w) & (w > 0.0)),
    ))
    if not failed.any():
        return None
    i = int(failed.any(axis=0).argmax())
    u, v = (int(x) if float(x).is_integer() else float(x) for x in ends[:, i])
    return EDGE_REFUSALS[int(failed[:, i].argmax())].format(u=u, v=v, n=n, w=float(w[i])), i


# Reference loops: the generators and the eigenvector sign rule written edge by
# edge and column by column. The array forms must match them bit for bit.


def gen_bbt_loop(depth: int) -> Graph:
    n = 2 ** (depth + 1) - 1
    return build_graph(n, [((v - 1) // 2, v, 1.0) for v in range(1, n)])


def gen_lattice_loop(p: int, periodic: bool = False) -> Graph:
    edges = []
    for r in range(p):
        for col in range(p):
            u = r * p + col
            if col + 1 < p:
                edges.append((u, u + 1, 1.0))
            elif periodic:
                edges.append((u, r * p, 1.0))
            if r + 1 < p:
                edges.append((u, u + p, 1.0))
            elif periodic:
                edges.append((u, col, 1.0))
    return build_graph(p * p, edges)


def kronecker_product_loop(g1: Graph, g2: Graph) -> Graph:
    n2 = g2.n
    edges = []
    for i1 in range(g1.n):
        base = i1 * n2
        for u2, v2, w in g2.edges:
            edges.append((base + u2, base + v2, w))
    for u1, v1, w in g1.edges:
        for i2 in range(n2):
            edges.append((u1 * n2 + i2, v1 * n2 + i2, w))
    return build_graph(g1.n * n2, edges)


def scale_weights_loop(g: Graph, factor: float) -> Graph:
    return build_graph(g.n, [(u, v, w * factor) for u, v, w in g.edges])


def gen_kron_multiscale_loop(base: Graph, levels: int) -> Graph:
    p = base.n
    result = scale_weights_loop(base, 1.0 / p ** (levels - 1)) if levels > 1 else base
    for j in range(levels - 2, -1, -1):
        factor = scale_weights_loop(base, 1.0 / p**j) if j > 0 else base
        result = kronecker_product_loop(result, factor)
    return result


def fix_signs_loop(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first entry above 1e-12 of its largest magnitude is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def truncated_bound_loop(lambdas: np.ndarray, rho: float) -> tuple[float, int] | None:
    """min over k with lambda_{k+1} > rho of sqrt(k + (n-k) rho / lambda_{k+1}), one k at a time.

    ``lambdas`` are lambda_2..lambda_n. Returns the bound and the smallest
    minimizing k, or None when no eigenvalue exceeds rho.
    """
    n = lambdas.size + 1
    best = None
    for k in range(1, n):
        lam_next = float(lambdas[k - 1])
        if lam_next <= rho:
            continue
        value = math.sqrt(k + (n - k) * rho / lam_next)
        if best is None or value < best[0]:
            best = (value, k)
    return best


def kkt_solve_loop(c: np.ndarray, lambdas: np.ndarray, rho: float) -> tuple[np.ndarray, str, float, int]:
    """The KKT solve on ungrouped coefficients, one term per eigenvector.

    Returns the maximizer z, the case, the dual multiplier nu* and the number
    of root-finding steps; the value is (c'z)**2. The grouped kernel must agree
    with it to rounding.
    """
    norm_c = float(np.linalg.norm(c))
    if norm_c == 0.0:
        return np.zeros_like(c), "a", 0.0, 0
    z = c / norm_c
    if float(z @ (lambdas * z)) <= rho:
        return z, "a", 0.0, 0

    w = c / lambdas
    quad = float(w @ (lambdas * w))  # = c' diag(lambdas)^-1 c
    z = w * math.sqrt(rho / quad)
    if float(z @ z) <= 1.0:
        return z, "b", quad, 0

    def ellipsoid_gap(t: float) -> float:
        zt = c / (1.0 + t * lambdas)
        zt /= np.linalg.norm(zt)
        return float(zt @ (lambdas * zt)) - rho

    # a point where the gap is not positive is the upper end, in both loops
    iterations = 0
    t_hi = 1.0
    for _ in range(200):
        iterations += 1
        if ellipsoid_gap(t_hi) <= 0.0:
            break
        t_hi *= 2.0
    t_lo = 0.0
    for _ in range(200):
        iterations += 1
        mid = 0.5 * (t_lo + t_hi)
        if ellipsoid_gap(mid) > 0.0:
            t_lo = mid
        else:
            t_hi = mid
        if t_hi - t_lo <= 1e-14 * t_hi:
            break
    w = c / (1.0 + t_hi * lambdas)
    theta = float(c @ w)
    return w / np.linalg.norm(w), "c", t_hi * theta, iterations


def grouped_kkt_loop(s: np.ndarray, mu: np.ndarray) -> tuple[float, str, float, float, int]:
    """The KKT solve on one row ``s`` of group sums, written row by row: value, case, nu~, root and steps.

    ``mu`` holds the distinct eigenvalues over rho, so the ellipsoid is
    z' diag(mu) z <= 1. ``spectral._grouped_kkt`` must give each row of a
    chunk these bits.
    """
    total = float(s.sum())
    if total == 0.0:
        return 0.0, "a", 0.0, 0.0, 0
    p = s / total
    if float(p @ mu) <= 1.0:
        return total, "a", 0.0, 0.0, 0

    inv = p / mu
    quad = float(inv.sum())  # c' diag(mu)^-1 c / total
    if float((inv / mu).sum()) <= quad:  # ||z||**2 <= 1
        return quad * total, "b", quad * total, 0.0, 0

    def gap(root: float) -> float:
        q = p / (1.0 + root * mu) ** 2  # z_i**2 before normalizing
        return float(mu @ q) / float(q.sum()) - 1.0

    # each loop runs until it brackets the root, or narrows the bracket to
    # 1e-14 relative, in at most 2200 steps, more than finite doubles allow;
    # a point where the gap is not positive is the upper end, in both loops;
    # a gap whose terms overflow is evaluated all the same, as in the kernel
    lo, hi, steps = 0.0, 1.0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2200):
            steps += 1
            if gap(hi) <= 0.0:
                break
            hi *= 2.0
        else:
            raise ValueError("no bracket")
        for _ in range(2200):
            if hi - lo <= 1e-14 * hi:
                break
            steps += 1
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid
    w = p / (1.0 + hi * mu)
    theta = float(w.sum())
    value = theta**2 / float((w / (1.0 + hi * mu)).sum()) * total
    return value, "c", hi * theta * total, hi, steps

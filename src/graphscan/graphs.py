"""Weighted undirected graphs, combinatorial Laplacians, cut sparsity, and generators.

Graphs are immutable after construction, and every function here is pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "Cluster",
    "build_graph",
    "laplacian",
    "boundary_weight",
    "cut_sparsity",
    "is_connected",
    "gen_bbt",
    "gen_lattice",
    "kronecker_product",
    "scale_weights",
    "gen_kron_multiscale",
    "two_triangles",
    "write_edge_list",
    "read_edge_list",
]


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph on vertices 0..n-1 with no self-loops or multi-edges.

    Construct through :func:`build_graph`, which validates the invariants.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return tuple(tuple(nbrs) for nbrs in adj)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only endpoint (int64) and weight arrays of the edges, in input order."""
        table = np.array(self.edges, dtype=float).reshape(-1, 3).T.copy()
        ends = table[:2].astype(np.int64)
        table.flags.writeable = ends.flags.writeable = False
        return ends[0], ends[1], table[2]

    @cached_property
    def _connected(self) -> bool:
        # hook each edge's larger root onto its smaller one, then flatten to roots
        eu, ev, _ = self.edge_arrays
        label = np.arange(self.n)
        while not np.array_equal(lu := label[eu], lv := label[ev]):
            np.minimum.at(label, lu, np.minimum(lu, lv))
            np.minimum.at(label, lv, np.minimum(lu, lv))
            while not np.array_equal(label[label], label):
                label = label[label]
        return not label.any()

    def neighbors(self, v: int) -> tuple[tuple[int, float], ...]:
        """Adjacent (vertex, weight) pairs of ``v``."""
        return self._adjacency[v]

    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Cluster:
    """A candidate activation cluster: a set of vertex ids.

    Must be nonempty; properness (|C| < n) is checked against a graph by the
    operations that need it.
    """

    members: frozenset[int]

    def __post_init__(self) -> None:
        members = frozenset(int(v) for v in self.members)
        if not members:
            raise ValueError("cluster must be nonempty")
        if any(v < 0 for v in members):
            raise ValueError("cluster contains negative vertex id")
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        return len(self.members)


def build_graph(n: int, edges) -> Graph:
    """Validate an edge list and return an immutable :class:`Graph`.

    Rejects self-loops, duplicate vertex pairs, non-positive or non-finite
    weights, and out-of-range vertex ids.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    seen: set[tuple[int, int]] = set()
    clean: list[tuple[int, int, float]] = []
    for edge in edges:
        u, v, w = edge
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add(key)
        if not np.isfinite(w) or w <= 0.0:
            raise ValueError(f"edge ({u},{v}) has non-positive weight {w}")
        clean.append((u, v, w))
    return Graph(n=n, edges=tuple(clean))


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - W as a dense symmetric array."""
    eu, ev, ew = g.edge_arrays
    lap = np.zeros((g.n, g.n))
    lap[eu, ev] = lap[ev, eu] = -ew
    # degrees summed in edge order, as a loop over the edges would
    ends = np.column_stack((eu, ev)).ravel()
    np.fill_diagonal(lap, np.bincount(ends, weights=np.repeat(ew, 2), minlength=g.n))
    return lap


def _check_cluster(g: Graph, c: Cluster) -> None:
    if max(c.members) >= g.n:
        raise ValueError("cluster contains vertex id outside the graph")
    if c.size >= g.n:
        raise ValueError("cluster must be a proper subset of the vertices")


def boundary_weight(g: Graph, c: Cluster) -> float:
    """Total weight of edges with exactly one endpoint in the cluster."""
    _check_cluster(g, c)
    members = c.members
    total = 0.0
    for u, v, w in g.edges:
        if (u in members) != (v in members):
            total += w
    return total


def cut_sparsity(g: Graph, c: Cluster) -> float:
    """Normalized cut weight n * w(boundary) / (|C| * |complement|).

    Equals the quadratic-form ratio (1_C' L 1_C) / (1_C' K 1_C) where K is the
    centering projection; zero is impossible on a connected graph.
    """
    _check_cluster(g, c)
    k = c.size
    return g.n * boundary_weight(g, c) / (k * (g.n - k))


def is_connected(g: Graph) -> bool:
    """Whether every vertex is reachable from every other, computed once per graph."""
    return g._connected


# ----------------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------------


def gen_bbt(depth: int) -> Graph:
    """Balanced binary tree of the given depth with unit weights.

    Vertices are numbered in level order with the root at 0, so the children
    of v are 2v+1 and 2v+2; n = 2**(depth+1) - 1.
    """
    depth = int(depth)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    n = 2 ** (depth + 1) - 1
    edges = [((v - 1) // 2, v, 1.0) for v in range(1, n)]
    return build_graph(n, edges)


def gen_lattice(p: int, periodic: bool = False) -> Graph:
    """Square lattice on p*p vertices with unit weights, row-major numbering.

    Non-periodic gives the grid (product of two paths); periodic gives the
    torus (product of two cycles). Periodic requires p >= 3 so that wrap-around
    does not duplicate an edge.
    """
    p = int(p)
    minimum = 3 if periodic else 2
    if p < minimum:
        kind = "periodic" if periodic else "non-periodic"
        raise ValueError(f"{kind} lattice requires p >= {minimum}, got {p}")
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


def kronecker_product(g1: Graph, g2: Graph) -> Graph:
    """Graph product with an edge where one coordinate moves along a factor edge.

    Vertex (i1, i2) is numbered i1 * g2.n + i2. The pair ((i1,i2), (j1,j2)) is
    an edge exactly when i1 == j1 and (i2,j2) is an edge of g2, or i2 == j2 and
    (i1,j1) is an edge of g1; the weight is inherited from the moving factor.
    The Laplacian of the result is L1 (x) I + I (x) L2.
    """
    n2 = g2.n
    edges: list[tuple[int, int, float]] = []
    for i1 in range(g1.n):
        base = i1 * n2
        for u2, v2, w in g2.edges:
            edges.append((base + u2, base + v2, w))
    for u1, v1, w in g1.edges:
        for i2 in range(n2):
            edges.append((u1 * n2 + i2, v1 * n2 + i2, w))
    return build_graph(g1.n * n2, edges)


def scale_weights(g: Graph, factor: float) -> Graph:
    """Multiply every edge weight by a positive scalar."""
    factor = float(factor)
    if factor <= 0.0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    return Graph(n=g.n, edges=tuple((u, v, w * factor) for u, v, w in g.edges))


def gen_kron_multiscale(base: Graph, levels: int) -> Graph:
    """Iterated product of down-weighted copies of a connected base graph.

    With p = base.n, the result on p**levels vertices is the product of
    (1/p**(levels-1)) * base, (1/p**(levels-2)) * base, ..., base, taken left
    to right, so the first (most significant) index coordinate is the coarsest
    scale and carries the lightest edge weights.
    """
    levels = int(levels)
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if not is_connected(base):
        raise ValueError("base graph must be connected")
    p = base.n
    result = scale_weights(base, 1.0 / p ** (levels - 1)) if levels > 1 else base
    for j in range(levels - 2, -1, -1):
        factor = scale_weights(base, 1.0 / p**j) if j > 0 else base
        result = kronecker_product(result, factor)
    return result


def two_triangles() -> Graph:
    """Two triangles {0,1,2} and {3,4,5} joined by the single edge (2,3)."""
    edges = [
        (0, 1, 1.0),
        (0, 2, 1.0),
        (1, 2, 1.0),
        (3, 4, 1.0),
        (3, 5, 1.0),
        (4, 5, 1.0),
        (2, 3, 1.0),
    ]
    return build_graph(6, edges)


# ----------------------------------------------------------------------------
# Edge-list files
# ----------------------------------------------------------------------------


def write_edge_list(g: Graph, path) -> None:
    """Write ``n=<count>`` then one ``u<TAB>v<TAB>w`` line per edge.

    Weights use the shortest decimal representation that round-trips, so
    read_edge_list(write_edge_list(g)) reproduces the graph bit-exactly.
    """
    lines = [f"n={g.n}"]
    lines.extend(f"{u}\t{v}\t{w!r}" for u, v, w in g.edges)
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(path) -> Graph:
    """Parse a file produced by :func:`write_edge_list` and validate it."""
    text = Path(path).read_text()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError(f"{path}: first line must be 'n=<count>'")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise ValueError(f"{path}: bad vertex count {lines[0][2:]!r}") from exc
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'u<TAB>v<TAB>w'")
        edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return build_graph(n, edges)

"""Weighted undirected graphs, combinatorial Laplacians, cut sparsity, and generators.

A :class:`Graph` stores read-only arrays, int64 endpoints ``eu``, ``ev`` and
float weights ``w`` in the given edge order, and derives its ``edges`` triples
from them. Graphs are validated on construction, immutable, and equal (with
equal hashes) when their contents are. Every function here is pure.

:func:`gen_lattice` and :func:`kronecker_product` (hence
:func:`gen_kron_multiscale`) also record the factors of the Cartesian product
they build, whose Laplacian is L1 (x) I + I (x) L2, so that its spectrum can be
computed factor by factor, and :func:`gen_bbt` records the depth and the
edge weight of the balanced binary tree it builds, whose spectrum splits into
small blocks; :func:`scale_weights` keeps either record, scaled. A record is
part of a graph's content: a graph read from an edge-list file has none and is
never equal to a generated one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from pathlib import Path

import numpy as np

from ._check import integer, number, numbers, real

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


class _EdgeError(ValueError):
    """A validation error that names edge ``index`` of the input arrays."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


# the checks on each edge, in the order an offending edge reports them
_EDGE_PROBLEMS = (
    "edge ({u},{v}) has a non-integer vertex id",
    "edge ({u},{v}) out of range for n={n}",
    "self-loop at vertex {u}",
    "duplicate edge ({u},{v})",
    "edge ({u},{v}) has weight {w}, not finite and positive",
    "edge ({u},{v}) has non-numeric weight {given!r}",
)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph on vertices 0..n-1 with no self-loops or multi-edges.

    Edge i joins ``eu[i]`` and ``ev[i]`` with weight ``w[i]``. Construction
    refuses a vertex count that is not a positive integer (a float or a bool
    included), non-integer or out-of-range ids, self-loops, a pair given
    twice in either orientation and weights that are not numbers, or not
    finite and positive, naming the first offending edge, and stores
    read-only copies of the arrays, each read by ``graphscan._check.numbers``.
    An id is an integer, or a whole float, that is not a bool; one that int64
    cannot hold is out of range whatever n is. A weight is a real number
    that is not a bool. It costs
    linear passes over the edges and one stable sort.
    Graphs with equal n and arrays, edge order included, and equal factor
    and tree records are equal; the hash of that content is computed once.
    """

    n: int
    eu: np.ndarray
    ev: np.ndarray
    w: np.ndarray
    # the Cartesian factors a generator recorded, in vertex-numbering order;
    # set only through _with_factors, and empty for a graph built from edges
    _factors = ()
    # the depth gen_bbt built the graph with, whose edges then share one
    # weight; set only there and by scale_weights, and 0 for any other graph
    _depth = 0

    def __post_init__(self) -> None:
        n = integer("vertex count", self.n, 1)
        # each read may be the caller's array itself, so the graph keeps copies
        eu, ev, w = (numbers(x, kind).copy() for x, kind in ((self.eu, int), (self.ev, int), (self.w, float)))
        if eu.ndim != 1 or not eu.shape == ev.shape == w.shape:
            raise ValueError("eu, ev and w must be vectors of equal length")
        if w.size:  # an edgeless graph has nothing to check
            bound = min(n, 2**63)  # no id beyond int64
            lo, hi = np.minimum(eu, ev), np.maximum(eu, ev)
            valid = (lo >= 0) & (hi < bound) & (lo != hi)
            # edges before the first invalid id pair have in-range integer ids, so only they need a
            # duplicate check: any refusal names one of them or that first invalid pair
            stop = w.size if valid.all() else int(valid.argmin())
            repeats = _repeats(lo[:stop], hi[:stop], n)
            if stop < w.size or repeats.size or not (w.min() > 0.0 and w.max() < math.inf):
                duplicate = np.zeros(w.size, dtype=bool)
                duplicate[repeats] = True
                failed = np.array((
                    (lo < 0) | (hi >= bound),  # and every id that is not an integer, as it reads -1
                    lo == hi,
                    duplicate,
                    ~(np.isfinite(w) & (w > 0.0)),
                ))
                i = failed.any(axis=0).argmax()
                # the offending edge's entries as given
                u, v = (given[i] if (x := number(given[i], int)) is None else x for given in (self.eu, self.ev))
                problem = 1 + failed[:, i].argmax() if type(u) is type(v) is int else 0
                if problem == 4 and number(self.w[i], float) is None:  # a weight that is not a number reads NaN
                    problem = 5
                raise _EdgeError(_EDGE_PROBLEMS[problem].format(u=u, v=v, n=n, w=float(w[i]), given=self.w[i]), int(i))
        eu.flags.writeable = ev.flags.writeable = w.flags.writeable = False
        for name, value in (("n", n), ("eu", eu), ("ev", ev), ("w", w)):
            object.__setattr__(self, name, value)

    @cached_property
    def _digest(self) -> int:
        return hash((
            self.n, self.eu.tobytes(), self.ev.tobytes(), self.w.tobytes(),
            self._factors, self._depth,
        ))

    def __hash__(self) -> int:
        return self._digest

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and all(map(np.array_equal, (self.eu, self.ev, self.w), (other.eu, other.ev, other.w)))
            and self._factors == other._factors
            and self._depth == other._depth
        )

    def __reduce__(self):
        # unpickling rebuilds through __post_init__, so the arrays come back as
        # validated read-only copies and the digest is recomputed
        return _rebuild, (self.n, self.eu, self.ev, self.w, self._factors, self._depth)

    @cached_property
    def _connected(self) -> bool:
        # hook each edge's larger root onto its smaller one, then flatten to roots
        label = np.arange(self.n)
        while not np.array_equal(lu := label[self.eu], lv := label[self.ev]):
            np.minimum.at(label, lu, np.minimum(lu, lv))
            np.minimum.at(label, lv, np.minimum(lu, lv))
            while not np.array_equal(label[label], label):
                label = label[label]
        return not label.any()

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as (u, v, w) triples of Python numbers, derived from the arrays."""
        return tuple(zip(self.eu.tolist(), self.ev.tolist(), self.w.tolist()))

    def num_edges(self) -> int:
        return self.w.size


def _repeats(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """The indices i at which the pair (lo[i], hi[i]) of ids in 0..n-1 occurs at an earlier index too.

    A stable sort of the int64 key lo * n + hi keeps each pair's first edge first; when n * n
    reaches 2**63, where the key could wrap, a lexsort of the two ids does the same.
    """
    if n * n < 2**63:
        key = lo.astype(np.int64, copy=False) * n + hi.astype(np.int64, copy=False)
        order = np.argsort(key, kind="stable")
        same = np.diff(key[order]) == 0
    else:
        order = np.lexsort((hi, lo))
        same = (np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0)
    return order[1:][same]


def _with_factors(g: Graph, factors) -> Graph:
    """``g``, recorded as the Cartesian product of ``factors``; g must not be hashed yet."""
    factors = tuple(factors)
    n = math.prod(f.n for f in factors)
    m = sum(f.num_edges() * (n // f.n) for f in factors)
    if (n, m) != (g.n, g.num_edges()):
        raise ValueError(f"factors give {n} vertices and {m} edges, graph has {g.n} and {g.num_edges()}")
    object.__setattr__(g, "_factors", factors)
    return g


def _rebuild(n, eu, ev, w, factors, depth=0) -> Graph:
    g = Graph(n, eu, ev, w)
    if factors:
        return _with_factors(g, factors)
    if depth:
        # a tree record comes back from its generator, scaled by g's first
        # edge weight; g must have the arrays that gives
        weight = float(g.w[0]) if g.w.size else 1.0
        tree = scale_weights(gen_bbt(depth), weight)
        if Graph(tree.n, tree.eu, tree.ev, tree.w) != g:
            raise ValueError(
                f"graph is not the unit-weight balanced binary tree of depth {depth} scaled by {weight!r}"
            )
        return tree
    return g


@dataclass(frozen=True)
class Cluster:
    """A candidate activation cluster: a set of vertex ids.

    Must be nonempty, and every id an integer (not a bool) that is not
    negative; the operations that need a proper subset of 0..n-1 check it
    against their vertex count by one rule, ``_check_cluster``.
    """

    members: frozenset[int]

    def __post_init__(self) -> None:
        members = frozenset(integer("cluster vertex id", v) for v in self.members)
        if not members:
            raise ValueError("cluster must be nonempty")
        if any(v < 0 for v in members):
            raise ValueError("cluster contains negative vertex id")
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        return len(self.members)


def build_graph(n: int, edges) -> Graph:
    """The validated :class:`Graph` of (u, v, w) triples, keeping their order.

    The triples' entries reach :class:`Graph` as they are, so an integer id keeps its exact value.
    """
    table = np.array(list(edges), dtype=object)
    if table.size and (table.ndim != 2 or table.shape[1] != 3):
        raise ValueError("edges must be (u, v, w) triples")
    return Graph(n, *(column.tolist() for column in table.reshape(-1, 3).T))


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - W as a dense symmetric array."""
    lap = np.zeros((g.n, g.n))
    lap[g.eu, g.ev] = lap[g.ev, g.eu] = -g.w
    # degrees summed in edge order, as a loop over the edges would
    ends = np.column_stack((g.eu, g.ev)).ravel()
    np.fill_diagonal(lap, np.bincount(ends, weights=np.repeat(g.w, 2), minlength=g.n))
    return lap


def _check_cluster(n: int, c: Cluster) -> None:
    """Refuses a cluster that is not a proper subset of the vertices 0..n-1."""
    if max(c.members) >= n:
        raise ValueError("cluster contains vertex id outside the graph")
    if c.size >= n:
        raise ValueError("cluster must be a proper subset of the vertices")


def _cut_weights(g: Graph, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """The weight of the edges each 0/1 row of the (k, n) block ``rows`` cuts, scaled by 2**-shift, and shift.

    Each row sums its crossing weights, with zeros for the other edges, along its own contiguous
    row of edges, so a row's cut keeps its bits alone and in any block; ``rows[:, g.eu]`` would
    lay the block out by columns, which the sum adds in another order. shift is 0 unless the total
    weight, which bounds every cut, overflows; the weights are then scaled by 2**-shift, with shift
    the bit length of the edge count, before the sum, so that no cut overflows.
    """
    with np.errstate(over="ignore"):
        shift = 0 if np.isfinite(g.w.sum()) else g.w.size.bit_length()
    crossing = rows.take(g.eu, axis=1) != rows.take(g.ev, axis=1)
    return np.where(crossing, np.ldexp(g.w, -shift), 0.0).sum(axis=1), shift


def _sparsity(n: int, cuts: tuple[np.ndarray, int], size) -> np.ndarray:
    """The cut sparsity n * cut / (size * (n - size)) of clusters of the given ``_cut_weights`` and sizes.

    The scaled cut is multiplied by n / (size * (n - size)), which lies in (0, 2], and scaled back
    last, so nothing overflows before a result beyond the doubles, which reads inf.
    """
    cut, shift = cuts
    with np.errstate(over="ignore"):
        return np.ldexp(cut * (n / (size * (n - size))), shift)


def _cluster_cut(g: Graph, c: Cluster) -> tuple[np.ndarray, int]:
    """``_cut_weights`` of the cluster's indicator row, once the cluster is a proper subset of g's vertices."""
    _check_cluster(g.n, c)
    inside = np.zeros((1, g.n), dtype=bool)
    inside[0, list(c.members)] = True
    return _cut_weights(g, inside)


def _finite(value, what: str) -> float:
    """``value`` as a float; refuses it, naming ``what``, when it lies beyond the doubles."""
    if not math.isfinite(value := float(value)):
        raise ValueError(f"the {what} overflows: the edge weights are too large in scale")
    return value


def boundary_weight(g: Graph, c: Cluster) -> float:
    """Total weight of edges with exactly one endpoint in the cluster; refused beyond the doubles."""
    cut, shift = _cluster_cut(g, c)
    with np.errstate(over="ignore"):
        return _finite(np.ldexp(cut[0], shift), "boundary weight")


def cut_sparsity(g: Graph, c: Cluster) -> float:
    """Normalized cut weight n * w(boundary) / (|C| * |complement|); refused beyond the doubles.

    Equals the quadratic-form ratio (1_C' L 1_C) / (1_C' K 1_C) where K is the
    centering projection; zero is impossible on a connected graph. ``glr_exact``
    computes each cluster's cut sparsity by the same functions, so its class at
    rho is exactly the clusters whose value here is at most rho. It stays exact
    where the boundary weight alone would overflow.
    """
    return _finite(_sparsity(g.n, _cluster_cut(g, c), c.size)[0], "cut sparsity")


def is_connected(g: Graph) -> bool:
    """Whether every vertex is reachable from every other, computed once per graph."""
    return g._connected


# ----------------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------------


def gen_bbt(depth: int) -> Graph:
    """Balanced binary tree of the given depth with unit weights.

    Vertices are numbered in level order with the root at 0, so the children
    of v are 2v+1 and 2v+2; n = 2**(depth+1) - 1. The result records its
    depth.
    """
    depth = integer("depth", depth, 1)
    n = 2 ** (depth + 1) - 1
    child = np.arange(1, n)
    g = Graph(n, (child - 1) // 2, child, np.ones(n - 1))
    object.__setattr__(g, "_depth", depth)  # before anything hashes g
    return g


def gen_lattice(p: int, periodic: bool = False) -> Graph:
    """Square lattice on p*p vertices with unit weights, row-major numbering.

    Non-periodic gives the grid (product of two paths); periodic gives the
    torus (product of two cycles), and the result records those factors.
    Periodic requires p >= 3 so that wrap-around does not duplicate an edge.
    """
    p = integer("p", p, 3 if periodic else 2)
    # vertex by vertex: the edge to the right, then the one below (wrapping on a torus)
    grid = np.arange(p * p).reshape(p, p)
    # each vertex's right neighbour and neighbour below: the grid rolled left one column and up one row
    ahead = np.empty((p, p, 2), dtype=grid.dtype)
    ahead[:, :-1, 0], ahead[:, -1, 0] = grid[:, 1:], grid[:, 0]
    ahead[:-1, :, 1], ahead[-1, :, 1] = grid[1:], grid[0]
    u, v = np.repeat(grid.ravel(), 2), ahead.ravel()
    if not periodic:
        keep = np.ones(ahead.shape, dtype=bool)
        keep[:, -1, 0] = keep[-1, :, 1] = False  # no edge leaves the last column rightward or the last row downward
        u, v = u[keep.ravel()], v[keep.ravel()]
    g = Graph(p * p, u, v, np.ones(u.size))
    side = _lattice_side(p, periodic)
    return _with_factors(g, (side, side))


@lru_cache(maxsize=16)
def _lattice_side(p: int, periodic: bool) -> Graph:
    """The path (cycle, if periodic) on p vertices along which each lattice coordinate moves."""
    steps = np.arange(p if periodic else p - 1)
    return Graph(p, steps, (steps + 1) % p, np.ones(steps.size))


def kronecker_product(g1: Graph, g2: Graph) -> Graph:
    """Graph product with an edge where one coordinate moves along a factor edge.

    Vertex (i1, i2) is numbered i1 * g2.n + i2. The pair ((i1,i2), (j1,j2)) is
    an edge exactly when i1 == j1 and (i2,j2) is an edge of g2, or i2 == j2 and
    (i1,j1) is an edge of g1; the weight is inherited from the moving factor.
    The Laplacian of the result is L1 (x) I + I (x) L2, and the result
    records g1 and g2 as its factors.
    """
    # the edges of each copy of g2 in turn, then each edge of g1 across all copies
    n2 = g2.n
    copies, steps = np.arange(g1.n)[:, None] * n2, np.arange(n2)
    g = Graph(
        g1.n * n2,
        np.concatenate(((copies + g2.eu).ravel(), (g1.eu[:, None] * n2 + steps).ravel())),
        np.concatenate(((copies + g2.ev).ravel(), (g1.ev[:, None] * n2 + steps).ravel())),
        np.concatenate((np.tile(g2.w, g1.n), np.repeat(g1.w, n2))),
    )
    return _with_factors(g, (g1, g2))


def scale_weights(g: Graph, factor: float) -> Graph:
    """Multiply every edge weight by a positive scalar.

    A recorded product stays one: the Laplacian a*(L1 (x) I + I (x) L2) is
    (a*L1) (x) I + I (x) (a*L2), so the result records each factor scaled. A
    recorded tree stays one too: its edges still share one weight, which its
    spectrum reads from them.
    """
    factor = real("scale factor", factor, "positive")
    scaled = Graph(g.n, g.eu, g.ev, g.w * factor)
    if g._factors:
        return _with_factors(scaled, (scale_weights(f, factor) for f in g._factors))
    if g._depth:  # before anything hashes scaled
        object.__setattr__(scaled, "_depth", g._depth)
    return scaled


def gen_kron_multiscale(base: Graph, levels: int) -> Graph:
    """Iterated product of down-weighted copies of a connected base graph.

    With p = base.n, the result on p**levels vertices is the product of
    (1/p**(levels-1)) * base, (1/p**(levels-2)) * base, ..., base, taken left
    to right, so the first (most significant) index coordinate is the coarsest
    scale and carries the lightest edge weights.
    """
    levels = integer("levels", levels, 1)
    if not is_connected(base):
        raise ValueError("base graph must be connected")
    p = base.n
    factors = [scale_weights(base, 1.0 / p**j) if j > 0 else base for j in range(levels - 1, -1, -1)]
    return reduce(kronecker_product, factors)


def two_triangles() -> Graph:
    """Two triangles {0,1,2} and {3,4,5} joined by the single edge (2,3)."""
    return Graph(6, [0, 0, 1, 3, 3, 4, 2], [1, 2, 2, 4, 5, 5, 3], np.ones(7))


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
    lines = [(k, line) for k, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines or not lines[0][1].startswith("n="):
        raise ValueError(f"{path}: first line must be 'n=<count>'")
    try:
        n = int(lines[0][1][2:])
    except ValueError as exc:
        raise ValueError(f"{path}: bad vertex count {lines[0][1][2:]!r}") from exc
    edges = []
    for lineno, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'u<TAB>v<TAB>w'")
        try:
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    try:
        return build_graph(n, edges)
    except _EdgeError as exc:
        raise ValueError(f"{path}:{lines[1 + exc.index][0]}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}:{lines[0][0]}: {exc}") from exc

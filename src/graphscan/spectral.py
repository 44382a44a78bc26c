"""Laplacian spectra in three forms, and the spectral scan statistic.

A :class:`Spectrum` holds the Laplacian eigenvalues in ascending order and
projects vectors onto the eigenvectors (and expands them back), in one of
three forms: dense (the n x n basis from :func:`eig_sym`), product (one
spectrum per factor of a Cartesian product, applied axis by axis) and tree
(a balanced binary tree of depth d, whose Laplacian splits in the level basis
into a radial tridiagonal block of size d+1 and, for each level l < d, 2**l
copies of a tridiagonal block of size d-l; the basis is applied by level sums
in O(n) per vector). Only the dense form holds an n x n matrix.

The scan statistic over a connected graph with Laplacian L is

    sup (x' y~)**2   subject to   ||x|| <= 1,  x' L x <= rho,  x' 1 = 0,

for the centered observation y~. In the eigenbasis of L restricted to the
complement of the constant vector, with coefficients c and eigenvalues
lambda_2..lambda_n, the ellipsoid is z' diag(mu) z <= 1 with mu = lambda/rho,
so L and rho enter only as mu, computed once per call: everything below runs
on this unit ellipsoid, in units of rho, and takes no rho, so scaling the
weights and rho together changes only the rounding of mu.
It is solved once through its KKT conditions: exactly one of three cases (ball
active, ellipsoid active, both active) holds, the last needing a
one-dimensional monotone root-find. The conditions depend on c only through
the c_i**2, so the solve runs on one term per distinct eigenvalue, the sum of
the c_i**2 over its eigenvectors; trees, lattices and their products repeat
eigenvalues heavily (33 distinct values among the 254 of the depth-7 tree).
The same case gives the dual multiplier nu~ of the unit ellipsoid (nu* =
nu~/rho for x'Lx <= rho), and the dual objective at nu~, max(0, theta) + nu~
with theta the largest eigenvalue of c c' - nu~ diag(mu), certifies the value
from above: the reported gap is the difference between the two. It is a
closed form: with u = 1/s, nu~ = sum c_i**2/(u + mu_i) makes theta = u*nu~
(the root of theta's secular equation), so the dual is (1 + s) * sum
c_i**2/(1 + s*mu_i): ||c||**2 in case "a" (s = 0), sum c_i**2/mu_i in case
"b" (s -> infinity), and summed over the ungrouped terms, so that it also
checks the grouping. Each observation's coefficients are scaled by a power
of two before squaring, so neither the solve nor the certificate overflows
or underflows at extreme scales of y. One rule refuses: a value outside the
range of normal doubles; nu*, the dual and the gap are reported as they
unscale, so nu* reads inf where it alone leaves the doubles. A rho so small
that lambda_max/rho overflows puts every row in case "b", linear in rho, so
the rows are solved at rho scaled up by a power of four and their values
scaled back (:func:`_unit_means`).

The root-find of the third case is the one bisection of this module
(:func:`_bisect`, which :func:`chi_max` runs too): s doubles from 1 until
the gap is not positive, and [0, s] is bisected until it is narrow relative
to the root (1e-14), every point where the gap is not positive becoming the
upper end, one row at a time; a chunk of observations is settled in the
first two cases all at once, each row in the same bits as alone.
Every point of the third case's multiplier path also
bounds the value, with no root-find: the maximizer's direction there, scaled
into the feasible set, from below, and the dual objective at the matching
multiplier from above. Both are the value at the root, and at the path's two
ends they are closed forms in the group sums, which are the value in the first
two cases. The Monte Carlo threshold, an order statistic of many observations'
values, bounds every observation at the path's ends, refines the bounds of
those that may hold the selected rank once, a chunk at a time, by a few
lockstep Newton steps along the path, and solves those still in contention in
full, so it is the same bits as sorting the full solves.

A block of observations is scored in a workspace of flat float buffers that
each thread keeps (``threading.local``) and reuses for every block and call,
so no buffer is allocated, faulted in and freed per block: one buffer holds
the replicate noise, and two hold in turn the centred block, the projection's
axis-by-axis outputs, the coefficients in eigenvalue order and their squares;
a tree's projection works its level sums in a fourth. The functions here score
one chunk of a block, of at most 2**16 entries (or one row, if a row is
longer; :func:`_row_chunks`), so each buffer keeps at most that many: four
buffers per thread, 2 MB for n up to 2**16. The coefficients and group sums
``_scaled_sums`` returns are views of the workspace, valid until its next call
in the same thread.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, reduce
from pathlib import Path

import numpy as np

from ._check import numbers, observation, real

__all__ = [
    "Spectrum",
    "DenseSpectrum",
    "ProductSpectrum",
    "TreeSpectrum",
    "SssResult",
    "eig_sym",
    "center",
    "chi_max",
    "sss",
    "write_spectrum_csv",
]

# Eigenvalues within this fraction of lambda_max of their neighbour count as
# equal. eigh returns a repeated eigenvalue within about 1e-15 * lambda_max,
# while distinct ones on trees, lattices and their products lie at least
# 1e-4 * lambda_max apart. A lambda_2 equal in this sense to lambda_1 = 0
# marks a disconnected graph.
_TIE_RTOL = 1e-10

# _bisect brackets a root by doubling and bisects it until the bracket is
# this narrow relative to the root, each in at most this many steps: doubling
# overflows after 1024, and from an upper end below 2**1024 to the smallest
# subnormal double takes 2098 halvings, and _ROOT_RTOL about 47 more.
_ROOT_RTOL = 1e-14
_ROOT_STEPS = 2200
# An order statistic refines the bounds of the rows its closed-form bounds
# leave in contention at this many points of the case-"c" multiplier path (a
# start and Newton steps from it), which bound every case-"c" row of null
# samples on tori, trees and Kronecker products within 3e-7 relative.
_PATH_STEPS = 4
# A value bound is widened by this fraction to cover the rounding of the sums
# behind it (one term per distinct eigenvalue, a relative error far below
# 1e-8 for any spectrum that fits in memory).
_BOUND_RTOL = 1e-8
# Group sums that an order statistic may hold for its open rows at once; past
# it, the oldest open rows are solved in full and kept as their value.
_OPEN_ENTRIES = 1 << 19
# Observation entries in one block of replicates, and in the chunks a block is
# scored in, so the most each workspace buffer holds unless one row is longer.
_BLOCK_ENTRIES = 1 << 16
# How a statistic refuses a value outside the normal doubles, given its name.
_OVERFLOWS = "the {} statistic overflows: the observation is too large in scale"
_UNDERFLOWS = "the {} statistic underflows: the observation is too small in scale"


class _Workspace(threading.local):
    """Flat float buffers, one per role, that a thread reuses for every block it scores.

    The roles are "noise" (the replicate draws), "a" and "b" (what a block's
    scoring passes between them) and "tree" (a tree projection's level sums).
    A buffer grows to the largest array asked of it and is never shrunk, so a
    thread keeps at most four.
    """

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}

    def array(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous array of this shape at the start of the role's buffer, holding whatever was left there."""
        size = math.prod(shape)
        buffer = self.buffers.get(role)
        if buffer is None or buffer.size < size:
            buffer = self.buffers[role] = np.empty(size)
        return buffer[:size].reshape(shape)


_WORKSPACE = _Workspace()


def _row_chunks(y: np.ndarray, n: int):
    """The (R, n) block ``y`` in chunks of whole rows, each of at most ``_BLOCK_ENTRIES`` entries or one row.

    An empty block is one empty chunk.
    """
    rows = max(1, _BLOCK_ENTRIES // n)
    return (y[start : start + rows] for start in range(0, max(len(y), 1), rows))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Laplacian eigenvalues in ascending order, and the coefficients of vectors on their eigenvectors.

    A spectrum takes one of three forms, which differ only in how they hold
    the eigenbasis: :class:`DenseSpectrum` (an n x n matrix),
    :class:`ProductSpectrum` (one spectrum per Cartesian factor) and
    :class:`TreeSpectrum` (the small blocks of a balanced binary tree). Each
    form numbers its eigenvectors in a raw order of its own, and supplies only
    ``_along``, the transform of a (B, n, A) block along its middle axis from
    vertex values to raw coefficients (or back, with ``inverse``). Given
    ``out``, a C-contiguous array of the block's shape, it may return the
    result there rather than in new memory, and a product may also overwrite
    the block with it;
    ``order[i]`` is the raw index of ``eigenvalues[i]``, and the methods here
    apply it. Arrays are frozen so a cached Spectrum can be shared.
    """

    eigenvalues: np.ndarray
    order: np.ndarray

    @classmethod
    def product(cls, spectra) -> ProductSpectrum:
        """The spectrum of the Cartesian product of graphs with these spectra, in order."""
        factors = tuple(f for s in spectra for f in (s.factors if isinstance(s, ProductSpectrum) else (s,)))
        sums = reduce(lambda acc, values: (acc[:, None] + values).ravel(), map(_raw_eigenvalues, factors))
        order = np.argsort(sums, kind="stable")
        return ProductSpectrum(*_frozen(sums[order], order), factors=factors)

    @classmethod
    def tree(cls, depth: int, weight: float = 1.0) -> TreeSpectrum:
        """The spectrum of ``gen_bbt(depth)`` with every edge weight ``weight``, from its d+1 tridiagonal blocks.

        The weight scales the eigenvalues and leaves the eigenvectors as they are.
        """
        radial_values, radial = _level_block([2.0] + [3.0] * (depth - 1) + [1.0], first=0)
        blocks = [_level_block([3.0] * (m - 1) + [1.0], first=1) for m in range(1, depth + 1)]
        # raw order: the radial block, then level by level from the root, node by node
        raw = np.concatenate([radial_values] + [np.tile(blocks[depth - level - 1][0], 2**level)
                                                for level in range(depth)])
        raw *= weight
        order = np.argsort(raw, kind="stable")
        return TreeSpectrum(*_frozen(raw[order], order), depth=depth, radial=radial,
                            blocks=tuple(vectors for _, vectors in blocks))

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Runs of equal eigenvalues among lambda_2..lambda_n: where each starts, and its mean.

        A run continues while the next eigenvalue is within 1e-10 * lambda_max
        of the previous one; ``groups[0]`` indexes ``eigenvalues[1:]``.
        """
        lambdas = self.eigenvalues[1:]
        starts = np.flatnonzero(np.diff(lambdas, prepend=-np.inf) > _TIE_RTOL * self.eigenvalues[-1])
        means = np.add.reduceat(lambdas, starts) / np.diff(starts, append=lambdas.size)
        return _frozen(starts, means)

    def project(self, y: np.ndarray) -> np.ndarray:
        """Coefficients of each vector along the last axis of ``y`` on eigenvectors 2..n, in eigenvalue order.

        Drops the coefficient on the first (constant, for a connected graph)
        eigenvector. ``y`` must hold finite real numbers (read by
        :func:`graphscan._check.numbers`) and n entries along its last axis.
        """
        y = _last_axis(y, self.n, "y")
        coeffs = self._along(y.reshape(-1, self.n, 1), inverse=False).reshape(-1, self.n)
        return coeffs[:, self.order[1:]].reshape(*y.shape[:-1], self.n - 1)

    def expand(self, z: np.ndarray) -> np.ndarray:
        """The vector with coefficients ``z`` (n-1 finite reals) on eigenvectors 2..n; inverts :meth:`project`."""
        z = _last_axis(z, self.n - 1, "z")
        if z.ndim != 1:
            raise ValueError(f"z must be one vector of coefficients, got shape {z.shape}")
        coeffs = np.zeros(self.n)
        coeffs[self.order[1:]] = z
        return self._along(coeffs.reshape(1, self.n, 1), inverse=True).reshape(self.n)

    def _along(self, block: np.ndarray, inverse: bool, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class DenseSpectrum(Spectrum):
    """The form with an explicit basis: column i of ``eigenvectors`` belongs to ``eigenvalues[i]``.

    Its raw order is the eigenvalue order, so ``order`` is the identity.
    """

    eigenvectors: np.ndarray

    def _along(self, block, inverse, out=None):
        m = self.eigenvectors.T if inverse else self.eigenvectors
        if block.shape[2] == 1:
            rows = None if out is None else out.reshape(-1, m.shape[0])
            return np.matmul(block.reshape(-1, m.shape[0]), m, out=rows).reshape(block.shape)
        return np.matmul(m.T, block, out=out)


@dataclass(frozen=True, eq=False)
class ProductSpectrum(Spectrum):
    """The form of a Cartesian product, held as one dense or tree spectrum per factor.

    A graph that is the Cartesian product of factors with Laplacians L1, ...,
    Lk (vertices numbered row-major over the factors) has the eigenvalues
    lambda1[i1] + ... + lambdak[ik], each with the eigenvector
    v1[i1] (x) ... (x) vk[ik]. The raw index is the row-major index
    (i1, ..., ik) over the factors' raw indices, and ``eigenvalues`` is the
    stable sort of the row-major outer sum. A nested product is flattened
    into its factors.
    """

    factors: tuple[Spectrum, ...]

    def _along(self, block, inverse, out=None):
        # entry (j1, ..., jk) becomes sum over (i1, ..., ik) of entry
        # (i1, ..., ik) times the product of M_a[i_a, j_a], one factor basis
        # M_a (or its transpose) per axis, applied one axis at a time; given
        # out, the axes write into out and the block in turn
        before, after, trailing = block.shape[0], self.n, block.shape[2]
        for factor in self.factors:
            after //= factor.n
            shape = (before, factor.n, after * trailing)
            written = factor._along(block.reshape(shape), inverse, None if out is None else out.reshape(shape))
            block, out = written, None if out is None else block
            before *= factor.n
        return block.reshape(-1, self.n, trailing)


@dataclass(frozen=True, eq=False)
class TreeSpectrum(Spectrum):
    """The form of ``gen_bbt(depth)``, held as the blocks of its Laplacian in the level basis.

    Level l holds the 2**l vertices at distance l from the root. The
    functions constant on each level are spanned by the unit vectors
    e_l = 1_{level l} / sqrt(2**l); on them the Laplacian is the radial block,
    tridiagonal of size d+1 with diagonal (2, 3, ..., 3, 1). For each node u
    at level l < d, the functions that are opposite on u's two child subtrees
    and constant on each of their levels are spanned by the unit vectors
    (1_{left, l+k} - 1_{right, l+k}) / sqrt(2**k), k = 1..d-l; on them the
    Laplacian is the block T_{d-l}, tridiagonal of size d-l with diagonal
    (3, ..., 3, 1). Every off-diagonal entry is -sqrt(2). The radial
    eigenvectors (the constant vector first) and, for each level and each
    node in turn, those of its block make up the raw order, d+1 + sum over l
    of 2**l * (d-l) = n in all. ``radial`` and ``blocks[m-1]`` hold the
    eigenvectors of the radial block and of T_m, their row for level l (or
    offset k) scaled by 1/sqrt(2**l) (1/sqrt(2**k)): the value of the
    eigenvector on each vertex of that level (of the left subtree; the right
    subtree takes its negative). With every edge weight a rather than 1, each
    block is multiplied by a: the eigenvalues scale by a and the eigenvectors
    stay.
    """

    depth: int
    radial: np.ndarray
    blocks: tuple[np.ndarray, ...]

    def _along(self, block, inverse, out=None):
        b, n, a = block.shape
        rows = block.transpose(0, 2, 1).reshape(-1, n)  # a view when a == 1
        if inverse:
            rows = self._from_coefficients(rows)
        else:  # into out when its rows are the result's, as they are when a == 1
            rows = self._to_coefficients(rows, None if out is None or a > 1 else out.reshape(b, n))
        return rows.reshape(b, a, n).transpose(0, 2, 1)

    def _to_coefficients(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Raw coefficients of each row of ``y``, into ``out`` if given: one pass from the leaves up, O(n) per row.

        Given ``out``, the level sums are worked in the thread's workspace
        buffer "tree", of ``out``'s size; otherwise in new memory.
        """
        d, r, n = self.depth, len(y), self.n
        scratch = np.empty(r * n) if out is None else _WORKSPACE.array("tree", (r * n,))
        out = np.empty((r, n)) if out is None else out
        # sums[:, i, k]: the row summed over the vertices k+1 levels below
        # node i of the current level; y holds the nodes' own values. Each
        # level's sums are made at the end of scratch its children's sums are
        # not at, first as the children's differences, whose product with the
        # level's block is the level's coefficients, which go next to them
        sums = scratch[:0].reshape(r, 2**d, 0)
        at_start, end = True, n
        for level in range(d - 1, -1, -1):
            size, width = 2**level, d - level
            m = r * size * width
            here, there = (0, m) if at_start else (r * n - m, r * n - 2 * m)
            made, product = scratch[here : here + m].reshape(r, size, width), scratch[there : there + m]
            children = y[:, 2 * size - 1 : 4 * size - 1]
            np.subtract(children[:, 0::2], children[:, 1::2], out=made[:, :, 0])
            np.subtract(sums[:, 0::2], sums[:, 1::2], out=made[:, :, 1:])
            np.matmul(made.reshape(-1, width), self.blocks[width - 1], out=product.reshape(-1, width))
            out[:, end - size * width : end] = product.reshape(r, size * width)
            end -= size * width
            np.add(children[:, 0::2], children[:, 1::2], out=made[:, :, 0])
            np.add(sums[:, 0::2], sums[:, 1::2], out=made[:, :, 1:])
            sums, at_start = made, not at_start
        # the root's value and sums, one row each, at the end the sums are not at
        here = 0 if at_start else r * n - r * (d + 1)
        root = scratch[here : here + r * (d + 1)].reshape(r, d + 1)
        root[:, 0], root[:, 1:] = y[:, 0], sums[:, 0]
        np.matmul(root, self.radial, out=out[:, :end])
        return out

    def _from_coefficients(self, c: np.ndarray) -> np.ndarray:
        """The vectors with raw coefficients ``c``: one pass from the root down, inverting the one up."""
        d, r = self.depth, len(c)
        out = np.empty((r, self.n))
        # values[:, i, k]: what each vertex k levels below node i of the
        # current level receives from the blocks above i (k = 0 is node i)
        values = (c[:, : d + 1] @ self.radial.T)[:, None]
        start = d + 1
        for level in range(d):
            size, width = 2**level, d - level
            out[:, size - 1 : 2 * size - 1] = values[:, :, 0]
            end = start + size * width
            odd = (c[:, start:end].reshape(-1, width) @ self.blocks[width - 1].T).reshape(r, size, width)
            start = end
            values, inherited = np.empty((r, 2 * size, width)), values[:, :, 1:]
            np.add(inherited, odd, out=values[:, 0::2])
            np.subtract(inherited, odd, out=values[:, 1::2])
        out[:, -(2**d) :] = values[:, :, 0]
        return out


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _last_axis(values, length: int, name: str) -> np.ndarray:
    """``values`` read as finite reals by :func:`graphscan._check.numbers`, once its last axis holds ``length`` entries."""
    values = numbers(values, float, name)
    if values.shape[-1:] != (length,):
        raise ValueError(f"{name} must have {length} entries along its last axis, got shape {values.shape}")
    return values


def _raw_eigenvalues(spectrum: Spectrum) -> np.ndarray:
    """The eigenvalues in the spectrum's raw order."""
    raw = np.empty(spectrum.n)
    raw[spectrum.order] = spectrum.eigenvalues
    return raw


def _level_block(diagonal: list[float], first: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the tridiagonal block with this diagonal and off-diagonal -sqrt(2).

    Row j of the eigenvectors is scaled by 1/sqrt(2**(first + j)).
    """
    m = len(diagonal)
    values, vectors = np.linalg.eigh(np.diag(diagonal) - math.sqrt(2.0) * (np.eye(m, k=1) + np.eye(m, k=-1)))
    return values, vectors * 2.0 ** (-0.5 * np.arange(first, first + m))[:, None]


@dataclass(frozen=True)
class SssResult:
    """Scan-statistic value with its dual multiplier, a feasible witness and a certificate.

    ``witness`` lies in the feasible set (unit ball, Laplacian ellipsoid, mean
    zero) and attains ``value``; its first entry above 1e-12 of its largest
    magnitude is positive, as for :func:`eig_sym`'s columns (:func:`_fix_signs`).
    ``case`` names the active KKT case ("a": ball, "b": ellipsoid, "c": both),
    ``iterations`` counts the root-finding steps (nonzero only in case "c"),
    and ``gap`` is the dual objective at ``nu_star`` minus ``value``, which
    weak duality makes nonnegative up to rounding. ``value`` is a normal
    double; ``nu_star`` and ``gap`` are as they unscale, so ``nu_star`` is
    inf where it leaves the doubles (subnormal or 0 below them), and ``gap``
    is inf only for a value within rounding of the largest double.
    """

    value: float
    nu_star: float
    witness: np.ndarray
    case: str
    iterations: int
    gap: float


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first non-negligible entry is positive."""
    big = np.abs(vectors) > 1e-12 * np.abs(vectors).max(axis=0)
    lead = vectors[big.argmax(axis=0), np.arange(vectors.shape[1])]
    # multiplying by -1.0 negates exactly, signed zeros included
    return vectors * np.where(big.any(axis=0) & (lead < 0.0), -1.0, 1.0)


def eig_sym(m: np.ndarray) -> DenseSpectrum:
    """Full eigendecomposition of a symmetric matrix, deterministic per input.

    Raises if the input is not a nonempty square matrix of finite real numbers (read by
    :func:`graphscan._check.numbers`), or not symmetric to within 1e-12 relative.
    """
    m = numbers(m, float, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh(m)
    values, order, vectors = _frozen(values, np.arange(values.size), _fix_signs(vectors))
    return DenseSpectrum(values, order, eigenvectors=vectors)


def _row_means(y: np.ndarray) -> np.ndarray:
    """The mean of each row of the (R, n) block ``y``, with a constant row's mean its value, so it centres to zeros.

    Every other row's mean has the bits of ``y.mean(axis=1)``, infinite where
    the row's sum overflows. Only the rows whose first and last entries are
    equal are tested for constancy.
    """
    with np.errstate(over="ignore"):
        means = y.mean(axis=1)
    candidates = y[:, 0] == y[:, -1]
    if candidates.any():
        constant = np.flatnonzero(candidates)
        constant = constant[(y[constant] == y[constant, :1]).all(axis=1)]
        means[constant] = y[constant, 0]
    return means


def center(y: np.ndarray) -> np.ndarray:
    """Subtract the mean: y~ = (I - 11'/n) y, exactly 0 for a constant ``y``, however large.

    Refuses anything but a nonempty vector of finite numbers
    (:func:`graphscan._check.observation`), and one whose centred entries overflow.
    """
    y = observation(y)
    with np.errstate(over="ignore", invalid="ignore"):
        centred = y - _row_means(y[None])[0]
    if not np.isfinite(centred).all():
        raise ValueError("the centred observation overflows: the observation is too large in scale")
    return centred


def chi_max(c: np.ndarray, lambdas: np.ndarray, nu: float) -> float:
    """Largest eigenvalue of c c' - nu * diag(lambdas) via the secular equation.

    ``c`` must hold finite real numbers, ``lambdas`` finite, strictly
    positive and ascending ones (each read by :func:`graphscan._check.numbers`),
    and ``nu`` must be finite and nonnegative. Components with
    c_i**2 <= 1e-28 * ||c||**2 (those whose squares underflow among them) are
    deflated: they contribute plain diagonal eigenvalues -nu * lambda_i. On the
    remaining active part, the largest eigenvalue is -nu * min(active lambdas)
    + t for the unique root t > 0 of

        f(t) = sum_i c_i**2 / (t + nu * (lambda_i - min(active lambdas))) - 1,

    which is decreasing, with f(||c||**2) <= 0; :func:`_bisect` narrows
    [0, ||c||**2] to 1e-14 relative to t, about 50 evaluations of O(len(c))
    each. That matches a dense eigendecomposition of the same matrix to about
    1e-13 * max(1, |theta|). A ||c||**2 or a result beyond the doubles is
    refused as an overflow, with no numpy warning first.
    """
    c, lambdas = numbers(c, float, "c"), numbers(lambdas, float, "lambdas")
    if c.shape != lambdas.shape or c.ndim != 1:
        raise ValueError("c and lambdas must be vectors of equal length")
    if lambdas.size == 0:
        raise ValueError("need at least one eigenvalue")
    if np.any(lambdas <= 0.0):
        raise ValueError("lambdas must be strictly positive")
    if np.any(np.diff(lambdas) < 0.0):
        raise ValueError("lambdas must be ascending")
    nu = real("nu", nu, "nonnegative")

    with np.errstate(over="ignore"):
        csq = c * c
        total = float(csq.sum())
    if math.isinf(total):
        raise ValueError("chi_max overflows: ||c||**2 is beyond the doubles")
    active = csq > 1e-28 * total
    if nu == 0.0 or not active.any():
        # pure rank-one (||c||^2) or pure diagonal (-nu * smallest lambda)
        top = total if active.any() else (-nu * float(lambdas[0]) if nu > 0.0 else 0.0)
    else:
        # shift so the pole of interest sits at zero: theta = -nu*lam_min + t, t > 0
        csq, lam = csq[active], lambdas[active]
        with np.errstate(over="ignore"):  # a pole beyond the doubles leaves its term 0
            delta = nu * (lam - lam[0])
        t = _bisect(lambda t: float((csq / (t + delta)).sum()) - 1.0, total)[0]
        deflated_top = -nu * float(lambdas[~active][0]) if (~active).any() else -math.inf
        top = max(-nu * float(lam[0]) + t, deflated_top)
    if math.isinf(top):
        raise ValueError("chi_max overflows: nu * lambdas is beyond the doubles")
    return top


def _bisect(f, hi: float) -> tuple[float, int]:
    """The root of a decreasing ``f`` on s > 0, from a first guess ``hi`` > 0, and the evaluations it took.

    ``hi`` doubles until f(hi) <= 0, and [0, hi] is then bisected until
    hi - lo <= _ROOT_RTOL * hi, or until no double lies between them (a root
    among the subnormals, where _ROOT_RTOL * hi rounds below their spacing);
    in both phases a point with f <= 0 becomes the upper end, and the root
    returned is that end. Each phase takes at most _ROOT_STEPS steps, more
    than finite doubles allow; an ``f`` that is positive or NaN at every
    doubling (it has no root below the doubles) is refused.
    """
    lo = 0.0
    for steps in range(1, _ROOT_STEPS + 1):
        if f(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        raise ValueError("the sss root has no bracket: the weights or rho are too extreme in scale")
    for _ in range(_ROOT_STEPS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _ROOT_RTOL * hi or not lo < mid < hi:
            break
        steps += 1
        if f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi, steps


def _connected_lambdas(spectrum: Spectrum) -> np.ndarray:
    """lambda_2..lambda_n; raises unless lambda_2 is clear of zero, as for a connected graph.

    lambda_2 must exceed 1e-10 * lambda_max, the tolerance within which two
    eigenvalues count as equal, so the test does not depend on the scale of
    the weights.
    """
    lambdas = spectrum.eigenvalues[1:]
    if lambdas.size == 0 or lambdas[0] <= _TIE_RTOL * spectrum.eigenvalues[-1]:
        raise ValueError("spectrum does not come from a connected graph (lambda_2 <= 0)")
    return lambdas


def _unit_means(spectrum: Spectrum, rho: float) -> tuple[np.ndarray, int]:
    """mu, the group means over rho * 4**shift, and shift (``rho`` taken as checked).

    Wherever lambda_max/rho is finite, shift is 0 and the ellipsoid x'Lx <= rho
    is z' diag(mu) z <= 1. Where it overflows, so does every lambda/rho, as
    lambda_2 > 1e-10 * lambda_max, so every row is in case "b",
    whose value rho * sum c_i**2/lambda_i, like its multiplier nu~, is linear
    in rho. Those rows are solved at rho * 4**shift, which brings
    lambda_max/rho to about 2**64, and scaled back by 4**-shift: a value is
    unscaled by 2**(2 * (e - shift)) for the exponent e of
    :func:`_scaled_sums`. A value below the normal doubles is still refused.
    """
    lambda_max, shift = float(spectrum.eigenvalues[-1]), 0
    if math.isinf(lambda_max / rho):
        shift = (math.frexp(lambda_max)[1] - math.frexp(rho)[1] - 64) // 2
    return spectrum.groups[1] / math.ldexp(rho, 2 * shift), shift


def _grouped_kkt(sums: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, ...]:
    """Maximize (c'z)^2 over the unit ball intersected with z' diag(mu) z <= 1, for each row of ``sums``.

    ``mu`` holds the distinct eigenvalues in units of rho, or of rho * 4**shift (:func:`_unit_means`).
    The problem depends on c only through its row s of ``sums``, the sums of
    c_i**2 over the eigenvectors of each distinct eigenvalue. Returns arrays
    of the value, the KKT case, the dual multiplier nu~ of the unit
    ellipsoid (nu*, that of x'Lx <= rho, is nu~/rho), the root s (0 outside
    case "c") and the root-finding steps. With weights p = sums / sum(sums),
    which keep every intermediate near 1 whatever c's scale:
      (a) z = c/||c|| when it already satisfies the ellipsoid, p'mu <= 1;
          the value is sum(sums) and nu~ = 0;
      (b) z proportional to c/mu scaled onto the ellipsoid, when that point
          stays inside the unit ball, sum(p/mu**2) <= sum(p/mu); the value
          is nu~ = c' diag(mu)^-1 c;
      (c) otherwise both constraints are active (:func:`_kkt_root`, row by row).
    A row's sums and dot products round as for the row alone, in any chunk.
    """
    total = sums.sum(axis=1)
    p = sums / np.where(total > 0.0, total, 1.0)[:, None]  # a row of zeros stays zero, in case "a"
    ball = (p[:, None] @ mu)[:, 0] <= 1.0  # a BLAS dot product per row, as p @ mu is for one row
    # mu underflows (to a subnormal or zero) only where rho >> lambda, in case "a", which uses none of this
    with np.errstate(all="ignore"):
        inv = p / mu
        quad = inv.sum(axis=1)  # c' diag(mu)^-1 c / total
        case = np.where(ball, "a", np.where((inv / mu).sum(axis=1) <= quad, "b", "c"))
        value, nu_star = np.where(ball, total, quad * total), np.where(ball, 0.0, quad * total)
    s, steps = np.zeros(len(sums)), np.zeros(len(sums), dtype=int)
    for i in np.flatnonzero(case == "c"):
        value[i], nu_star[i], s[i], steps[i] = _kkt_root(p[i], mu, total[i])
    return value, case, nu_star, s, steps


def _kkt_root(p: np.ndarray, mu: np.ndarray, total: float) -> tuple[float, float, float, int]:
    """Case "c" of :func:`_grouped_kkt` for one row of weights p and sum ``total``: the value, nu~, s and steps.

    z(s)_i ~ c_i / (1 + s*mu_i) normalized, with s > 0 the root of the gap
    z(s)' diag(mu) z(s) - 1 (decreasing in s); nu~ = s * theta, theta =
    sum_i c_i**2 / (1 + s*mu_i) the top eigenvalue of c c' - nu~ diag(mu).
    s is rho * t for the root t of the same path in x'Lx <= rho, so it is
    near 1 whatever the scale of the weights and rho. :func:`_bisect` finds
    it from s = 1, and the results are taken at the upper end it returns,
    where z(s) is inside the ellipsoid. At the case-"b" limit the gap rounds
    to 0 from some large s on, which ends the doubling there, with the
    case-"b" value to rounding. A row with no bracket (z(s) has become
    zeros, and the gap NaN) is refused, with no numpy warning first.
    """
    def gap(s: float) -> float:
        q = p / (1.0 + s * mu) ** 2  # z(s)_i**2 before normalizing
        return float(mu @ q / q.sum()) - 1.0

    with np.errstate(over="ignore", invalid="ignore"):
        s, steps = _bisect(gap, 1.0)
    # the value (c'z(s))**2 and the multiplier s * theta(s)
    w = p / (1.0 + s * mu)
    theta = float(w.sum())
    value = theta**2 / float((w / (1.0 + s * mu)).sum()) * total
    return value, s * theta * total, s, steps


def _path_weights(mu: np.ndarray) -> np.ndarray:
    """The (groups, 4) matrix of 1, mu, max(mu - 1, 0) and max(1 - mu, 0) at each group."""
    return np.stack((np.ones_like(mu), mu, np.maximum(mu - 1.0, 0.0), np.maximum(1.0 - mu, 0.0)), axis=1)


def _path_point(sums: np.ndarray, mu: np.ndarray, weights: np.ndarray, u: np.ndarray):
    """L(u), U(u), P(u), N(u), P3(u) and N3(u) (see :func:`_path_bounds`) for each row of group sums at its own u.

    ``weights`` is :func:`_path_weights` of ``mu``;
    P3 = sum_{mu > 1} (mu-1)*s/(u+mu)**3 and N3 likewise.
    """
    w = 1.0 / (u[:, None] + mu)
    term = sums * w  # s/(u+mu)**k for k = 1, 2, 3 in turn
    a = (term @ weights)[:, 0]
    b, e, p, n = (np.multiply(term, w, out=term) @ weights).T
    p3, n3 = (np.multiply(term, w, out=term) @ weights)[:, 2:].T
    return a * a / b * np.minimum(1.0, b / e), (u + 1.0) * a, p, n, p3, n3


def _path_bounds(sums: np.ndarray, mu: np.ndarray, steps: int) -> np.ndarray:
    """Bounds (low, high) on the value of :func:`_grouped_kkt` for rows of group sums, at ``steps`` path points.

    Everything is in units of rho, as in :func:`_grouped_kkt`. For a row of
    sums s at the groups' mu and any u > 0 (u = 1/s_root in
    :func:`_grouped_kkt`), let A = sum s/(u+mu), B = sum s/(u+mu)**2 and
    E = sum mu*s/(u+mu)**2. The point z ~ c/(u+mu), scaled into both
    constraints, is feasible with value L(u) = A**2/B * min(1, B/E), and
    U(u) = (u+1)*A is the dual objective max(0, chi_max(nu)) + nu at nu = A,
    as chi_max(A) = u*A exactly; so L(u) <= value <= U(u) for every u, in
    any case, and both equal the value at the case-"c" root, where E = B.
    With q_k = sum s/mu**k (one product with the (groups, 5) matrix of
    1, mu, 1/mu, mu**-2 and mu**-3, made in the call), the path's ends give
    closed forms, returned when ``steps`` is 0: the value is at most q_0 (the
    ball alone) and q_1 (the ellipsoid alone), and at least the values of c
    and of c/mu scaled into both constraints, q_0 * min(1, q_0/q_-1) and
    q_1 * min(1, q_1/q_2); in cases "a" and "b" they are the value up to
    rounding, and a row of zeros, or sums whose moments overflow, gives NaN
    or infinite bounds. Otherwise each row takes ``steps`` points in
    lockstep, and the best bounds seen are kept, NaN and infinite ones
    dropped. The first point is the root of the expansion of E - B about
    u = 0, (q_1 - q_2) / (2*(q_2 - q_3)) (1 where that is not positive and
    finite); each later one is Newton's step on phi(u) = N**-1/2 - P**-1/2,
    with E - B = P - N split into the terms above and below 1
    (P = sum_{mu > 1} (mu-1)*s/(u+mu)**2), or the geometric midpoint of the
    bracket the signs of P - N have left when the step falls outside it. phi
    is nearly linear in u (exactly so with one term on each side), as the
    reciprocal norm is in Moré and Sorensen's trust-region root.
    """
    with np.errstate(all="ignore"):
        total, first, inverse, inverse2, inverse3 = (sums @ np.power.outer(mu, (0.0, 1.0, -1.0, -2.0, -3.0))).T
        low = np.maximum(total * np.minimum(1.0, total / first), inverse * np.minimum(1.0, inverse / inverse2))
        high = np.minimum(total, inverse)
        if steps == 0:
            return np.stack((low, high), axis=1)
        weights = _path_weights(mu)
        below, above = np.zeros(len(sums)), np.full(len(sums), math.inf)  # where P < N, and P > N
        u = (inverse - inverse2) / (2.0 * (inverse2 - inverse3))
        u[~((u > 0.0) & (u < math.inf))] = 1.0
        for step in range(steps):
            lower, upper, p, n, p3, n3 = _path_point(sums, mu, weights, u)
            np.fmax(low, np.where(lower < math.inf, lower, 0.0), out=low)
            np.fmin(high, upper, out=high)
            if step == steps - 1:
                break
            np.copyto(below, u, where=p < n)
            np.copyto(above, u, where=p > n)
            # phi' = N**-3/2 * N3 - P**-3/2 * P3
            root_n, root_p = n**-0.5, p**-0.5
            u = u - (root_n - root_p) / (root_n**3 * n3 - root_p**3 * p3)
            outside = ~((below < u) & (u < above))
            if outside.any():
                lo, hi = below[outside], above[outside]
                u[outside] = np.where(lo > 0.0, np.where(hi < math.inf, np.sqrt(lo * hi), 16.0 * lo), hi / 16.0)
    return np.stack((low, high), axis=1)


def _scaled_sums(spectrum: Spectrum, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients of each centred row of ``y`` scaled by 2**-e, e, and their sums over each group of equal eigenvalues.

    ``y`` is a chunk (:func:`_row_chunks`) of a checked block (:func:`graphscan._check.observation`),
    so this checks only that the graph is connected, and refuses a coefficient that overflows.
    e brings the row's largest |c_i| into [0.5, 1), so the squares neither overflow nor underflow;
    a power of two scales exactly, so a value in range keeps every bit once :func:`_unscale`
    multiplies it by 2**(2e).
    The block is centred, projected, ordered, scaled and squared in the
    thread's workspace buffers "a" and "b", so the coefficients, and the sums
    unless groups were summed, are views of them, valid until the next call.
    """
    lambdas = _connected_lambdas(spectrum)
    r, n = y.shape
    centred, spare = (_WORKSPACE.array(role, (r, n, 1)) for role in ("a", "b"))
    with np.errstate(over="ignore", invalid="ignore"):  # a row too large to project is refused below
        np.subtract(y, _row_means(y)[:, None], out=centred[:, :, 0])
        raw = spectrum._along(centred, False, spare)
    # the ordered coefficients go to a buffer the projection left free, and
    # their squares to the other
    ordered, squared = ("a", "b") if np.may_share_memory(raw, spare) else ("b", "a")
    coeffs = _WORKSPACE.array(ordered, (r, n - 1))
    np.take(raw.reshape(r, n), spectrum.order[1:], axis=1, out=coeffs, mode="clip")  # "raise" would buffer
    largest = np.maximum(coeffs.max(axis=1), -coeffs.min(axis=1))
    if not np.isfinite(largest).all():
        raise ValueError(_OVERFLOWS.format("sss"))
    exps = np.frexp(largest)[1]
    np.ldexp(coeffs, -exps[:, None], out=coeffs)
    starts = spectrum.groups[0]
    sums = np.multiply(coeffs, coeffs, out=_WORKSPACE.array(squared, (r, n - 1)))
    if starts.size < lambdas.size:
        sums = np.add.reduceat(sums, starts, axis=1)
    return coeffs, exps, sums


def _unscale(scaled, exps):
    """``scaled * 2**(2 * exps)``; raises if that overflows, or if a nonzero value leaves the normal range below."""
    with np.errstate(over="ignore", under="ignore"):
        values = np.ldexp(scaled, 2 * exps)
    if not np.isfinite(values).all():
        raise ValueError(_OVERFLOWS.format("sss"))
    if ((np.abs(values) < np.finfo(float).tiny) & (scaled != 0.0)).any():
        raise ValueError(_UNDERFLOWS.format("sss"))
    return values


def _solved(sums: np.ndarray, exps: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Values of the statistic for rows of group sums scaled by 2**-exps (:func:`_scaled_sums`), each solved in full."""
    return _unscale(_grouped_kkt(sums, mu)[0], exps)


def _sss_values(spectrum: Spectrum, y: np.ndarray, rho: float) -> np.ndarray:
    """Values of the statistic for the rows of one chunk (:func:`_row_chunks`); ``rho`` is taken as checked."""
    _, exps, sums = _scaled_sums(spectrum, y)
    mu, shift = _unit_means(spectrum, rho)
    return _solved(sums, exps - shift, mu)


def _sss_order_statistic(spectrum: Spectrum, chunks, rho: float, rank: int, count: int) -> float:
    """The rank-th smallest (1-based) value of the statistic over the ``count`` rows of ``chunks``.

    ``chunks`` yields chunks (:func:`_row_chunks`) of observations, each used
    before the next is drawn. The result is entry ``rank - 1`` of the sorted
    :func:`_sss_values` of the same chunks, bit for bit, as every value
    that can be returned comes from :func:`_solved`; a chunk is refused as
    :func:`_sss_values` refuses it, and ``rho`` is taken as checked. Each row
    is solved only as far as it might hold the result, in three stages,
    every bound widened by ``_BOUND_RTOL`` and unscaled:

    0. as each chunk arrives, every row is bounded at the two ends of the
       case-"c" multiplier path (:func:`_path_bounds` with no steps); a row
       whose bounds might not unscale to normal doubles is solved in full at
       once, so a chunk is refused exactly when :func:`_sss_values` refuses
       it. A row is then set aside once ``count - rank + 1`` rows have lower
       bounds above its upper bound, or ``rank`` rows upper bounds below its
       lower bound, for then its value lies below (above) the result
       (counting the rows still to come). A row in contention keeps its
       bounds and exponent, and while it is open (its bounds differ) its
       group sums; at most ``_OPEN_ENTRIES`` group sums are held, the oldest
       open rows past that being solved in full;
    1. once every chunk is in, the rows still in contention are bounded at
       ``_PATH_STEPS`` points of the path, once each, a chunk
       (:func:`_row_chunks`) of their group sums at a time, and rows are set
       aside again. Widened, a row's bounds never meet, even where they are
       its value up to rounding (cases "a" and "b"), so it stays open;
    2. the open rows left are solved in full, and the result is the value
       whose rank, after the rows set aside below, is ``rank``.
    """
    mu, shift = _unit_means(spectrum, rho)
    largest = count - rank + 1  # the rank-th smallest value is the largest-th largest
    below = above = 0  # rows set aside because their value lies below (above) the result
    # the rows in contention: value bounds (equal once exact) and exponents,
    # and the group sums of the open rows, in order
    low, high, exps, held = np.empty(0), np.empty(0), np.empty(0, dtype=int), np.empty((0, mu.size))

    def widened(bounds, e):
        with np.errstate(over="ignore", under="ignore"):
            return np.ldexp(bounds * (1.0 - _BOUND_RTOL, 1.0 + _BOUND_RTOL), 2 * e[:, None])

    def set_aside():
        # the result is the top-th largest and the bottom-th smallest value
        # among these rows and those still to come
        nonlocal low, high, exps, held, below, above
        m, top, bottom = low.size, largest - above, rank - below
        floor = np.partition(low, m - top)[m - top] if m >= top else -math.inf
        ceiling = np.partition(high, bottom - 1)[bottom - 1] if m >= bottom else math.inf
        under, over = high < floor, low > ceiling
        below, above = below + int(np.count_nonzero(under)), above + int(np.count_nonzero(over))
        keep = ~(under | over)
        held = held[keep[low < high]]
        low, high, exps = low[keep], high[keep], exps[keep]

    for y in chunks:  # stage 0
        e, sums = _scaled_sums(spectrum, y)[1:]
        e -= shift
        bounds = widened(_path_bounds(sums, mu, 0), e)
        leaving = ~(bounds[:, 0] >= np.finfo(float).tiny) | ~np.isfinite(bounds[:, 1])
        if leaving.any():
            bounds[leaving] = _solved(sums[leaving], e[leaving], mu)[:, None]
        low, high, exps = (np.concatenate(pair) for pair in zip((low, high, exps), (*bounds.T, e)))
        held = np.concatenate((held, sums[bounds[:, 0] < bounds[:, 1]]))
        del sums  # summed groups are new memory, freed before the next chunk's are summed
        set_aside()
        past = len(held) - max(1, _OPEN_ENTRIES // mu.size)
        if past > 0:
            i = np.flatnonzero(low < high)[:past]
            low[i] = high[i] = _solved(held[:past], exps[i], mu)
            held = held[past:]

    i = np.flatnonzero(low < high)  # stage 1
    refined = [_path_bounds(part, mu, _PATH_STEPS) for part in _row_chunks(held, mu.size)]
    bounds = widened(np.concatenate(refined), exps[i])
    low[i], high[i] = np.fmax(low[i], bounds[:, 0]), np.fmin(high[i], bounds[:, 1])
    set_aside()
    i = np.flatnonzero(low < high)  # stage 2
    low[i] = _solved(held, exps[i], mu)
    return float(np.sort(low)[rank - 1 - below])


def sss(spectrum: Spectrum, y: np.ndarray, rho: float) -> SssResult:
    """Spectral scan statistic by one KKT solve, certified by the dual.

    :func:`_grouped_kkt`, on the observation as a one-row chunk and the
    groups' mu = lambda/rho, gives the value, the case, the dual multiplier
    nu~ of the unit ellipsoid (reported as nu* = nu~/rho), and in case "c"
    the root s and its step count. The primal maximizer z in the
    nonconstant eigenbasis is rebuilt from the ungrouped coefficients c and
    mu: c/||c|| (case "a"), c/mu scaled onto the ellipsoid ("b") or
    c/(1 + s*mu) normalized ("c"). The vector before scaling gives the dual
    objective at nu~ in closed form (see the module docstring): c'(c/mu) in
    case "b", and (1 + s) * c'(c/(1 + s*mu)) otherwise. It is summed over the
    ungrouped terms; by weak duality it bounds the statistic from above, and
    ``gap`` reports the difference, so it also checks the grouping. All of
    this runs on c scaled exactly by a power of two to a largest entry in
    [0.5, 1), so it holds for observations from about 1e-153 to 1e153 in
    scale. The value is unscaled as :func:`_sss_values` unscales it, so it is
    refused, if it overflows or underflows out of the normal range, exactly
    where the block path refuses it; nu*, the dual and the gap are not
    refused but reported as they unscale, nu* as inf past the doubles. A
    constant observation, however large, centres to exact zeros and yields 0
    in case "a" with a zero gap. Where
    lambda_max/rho overflows, all of this runs at rho * 4**shift
    (:func:`_unit_means`), and the value, the dual and the witness are
    scaled back.
    """
    rho = real("rho", rho, "positive")
    # a one-row chunk, so that _sss_values on the same row gives the same bits;
    # c and sums are views of the workspace, used before anything else scores
    (c,), e, sums = _scaled_sums(spectrum, observation(y, spectrum.n)[None])
    mu, shift = _unit_means(spectrum, rho)
    (value,), (case,), (nu,), (s,), (iterations,) = _grouped_kkt(sums, mu)
    rho_solved = math.ldexp(rho, 2 * shift)
    mu = spectrum.eigenvalues[1:] / rho_solved
    # c is scaled to a largest entry in [0.5, 1), and z does not depend on its scale
    if case == "b":  # z'diag(mu)z = c'(c/mu) before scaling
        z = c / mu
        dual = float(c @ z)
        z /= math.sqrt(dual)
    else:  # in case "a", s = 0: z = c/||c|| and the dual is ||c||**2
        z = c / (1.0 + s * mu)
        dual = (1.0 + s) * float(c @ z)
        if c.any():
            z /= np.linalg.norm(z)
    # the value is refused as _sss_values refuses it; nu* = nu~/rho_solved whatever
    # the shift, as nu~ and rho scale alike in case "b", and it and the dual are
    # reported as they unscale, inf past the doubles
    value = float(_unscale(value, e - shift)[0])
    with np.errstate(over="ignore", under="ignore"):
        nu_star = float(np.ldexp(float(nu) / rho_solved, 2 * e[0]))
        dual = float(np.ldexp(dual, 2 * (e[0] - shift)))
    # z is on the ellipsoid of rho * 4**shift, and 2**-shift * z on that of rho
    witness = _fix_signs(spectrum.expand(np.ldexp(z, -shift))[:, None])[:, 0]
    return SssResult(
        value=value, nu_star=nu_star, witness=witness, case=str(case), iterations=int(iterations), gap=dual - value
    )


def write_spectrum_csv(spectrum: Spectrum, path, vectors_path=None) -> None:
    """Write eigenvalues one per line; optionally the basis in column-major order.

    All values use 17 significant digits, enough to round-trip doubles. Only
    a dense spectrum holds a basis to write.
    """
    if vectors_path is not None and not isinstance(spectrum, DenseSpectrum):
        raise ValueError(f"only a dense spectrum holds an eigenvector basis, not a {type(spectrum).__name__}")
    Path(path).write_text(
        "".join(f"{v:.17g}\n" for v in spectrum.eigenvalues)
    )
    if vectors_path is not None:
        Path(vectors_path).write_text("".join(f"{x:.17g}\n" for x in spectrum.eigenvectors.T.flat))

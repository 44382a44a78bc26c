"""Symmetric eigendecomposition and the spectral scan statistic.

The scan statistic over a connected graph with Laplacian L is

    sup (x' y~)**2   subject to   ||x|| <= 1,  x' L x <= rho,  x' 1 = 0,

for the centered observation y~. In the eigenbasis of L restricted to the
complement of the constant vector, with coefficients c and eigenvalues
lambda_2..lambda_n, it is solved once through its KKT conditions: exactly one
of three cases (ball active, ellipsoid active, both active) holds, the last
needing a one-dimensional monotone root-find. The conditions depend on c only
through the c_i**2, so the solve runs on one term per distinct eigenvalue, the
sum of the c_i**2 over its eigenvectors; trees, lattices and their products
repeat eigenvalues heavily (33 distinct values among the 254 of the depth-7
tree). The same case gives the dual multiplier nu*, and the dual objective,
the largest eigenvalue of the rank-one-plus-diagonal matrix
c c' - nu* diag(lambda_2..lambda_n) (clamped at zero) plus nu* * rho, evaluated
on the ungrouped terms, certifies the value from above: the reported gap is
the difference between the two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from pathlib import Path

import numpy as np

__all__ = [
    "Spectrum",
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

@dataclass(frozen=True)
class Spectrum:
    """Laplacian eigenvalues in ascending order, with a basis kept in factored form.

    A graph that is the Cartesian product of leaf factors with Laplacians
    L1, ..., Lk (vertices numbered row-major over the factors) has the
    eigenvalues lambda1[i1] + ... + lambdak[ik], each with the eigenvector
    v1[:, i1] (x) ... (x) vk[:, ik]. ``factors`` holds each leaf's
    (eigenvalues, eigenvectors) pair; ``eigenvalues`` lists the sums in
    ascending order (a stable sort of the row-major outer sum), and
    ``order[i]`` is the row-major index (i1, ..., ik) of ``eigenvalues[i]``.
    A dense spectrum is the one-factor case, with ``order`` the identity.
    Arrays are frozen so a cached Spectrum can be shared.
    """

    factors: tuple[tuple[np.ndarray, np.ndarray], ...]
    eigenvalues: np.ndarray
    order: np.ndarray

    @classmethod
    def product(cls, spectra) -> Spectrum:
        """The spectrum of the Cartesian product of graphs with these spectra, in order."""
        factors = tuple(pair for spectrum in spectra for pair in spectrum.factors)
        sums = reduce(lambda acc, values: (acc[:, None] + values).ravel(), (v for v, _ in factors))
        order = np.argsort(sums, kind="stable")
        values = sums[order]
        values.flags.writeable = order.flags.writeable = False
        return cls(factors=factors, eigenvalues=values, order=order)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """The dense basis: column i is the unit eigenvector of ``eigenvalues[i]``.

        Built on first use for a factored spectrum, at n*n floats.
        """
        if len(self.factors) == 1:
            return self.factors[0][1]
        vectors = reduce(np.kron, (v for _, v in self.factors))[:, self.order]
        vectors.flags.writeable = False
        return vectors

    @cached_property
    def groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Runs of equal eigenvalues among lambda_2..lambda_n: where each starts, and its mean.

        A run continues while the next eigenvalue is within 1e-10 * lambda_max
        of the previous one; ``groups[0]`` indexes ``eigenvalues[1:]``.
        """
        lambdas = self.eigenvalues[1:]
        starts = np.flatnonzero(np.diff(lambdas, prepend=-np.inf) > _TIE_RTOL * self.eigenvalues[-1])
        means = np.add.reduceat(lambdas, starts) / np.diff(starts, append=lambdas.size)
        starts.flags.writeable = means.flags.writeable = False
        return starts, means

    def _contract(self, rows: np.ndarray, transpose: bool) -> np.ndarray:
        # entry (j1, ..., jk) of each row becomes sum over (i1, ..., ik) of
        # entry (i1, ..., ik) times the product of M_a[i_a, j_a], one factor
        # basis (or its transpose) M_a per axis, applied one axis at a time
        before, after = len(rows), self.n
        for _, vectors in self.factors:
            m = vectors.T if transpose else vectors
            size = m.shape[0]
            after //= size
            block = rows.reshape(before, size, after)
            rows = block.reshape(-1, size) @ m if after == 1 else np.matmul(m.T, block)
            before *= size
        return rows.reshape(-1, self.n)

    def project(self, y: np.ndarray) -> np.ndarray:
        """Coefficients of each row of ``y`` on eigenvectors 2..n, in eigenvalue order.

        Drops the coefficient on the first (constant, for a connected graph)
        eigenvector. A factored spectrum applies each factor basis along its
        axis, V1' Y V2 for two factors, rather than an n x n matrix.
        """
        if len(self.factors) == 1:
            return y @ self.factors[0][1][:, 1:]
        coeffs = self._contract(np.asarray(y, dtype=float).reshape(-1, self.n), transpose=False)
        return coeffs[:, self.order[1:]].reshape(*np.shape(y)[:-1], self.n - 1)

    def expand(self, z: np.ndarray) -> np.ndarray:
        """The vector with coefficients ``z`` on eigenvectors 2..n; inverts :meth:`project`."""
        if len(self.factors) == 1:
            return self.factors[0][1][:, 1:] @ z
        coeffs = np.zeros(self.n)
        coeffs[self.order[1:]] = z
        return self._contract(coeffs[None], transpose=True)[0]


@dataclass(frozen=True)
class SssResult:
    """Scan-statistic value with its dual multiplier, a feasible witness and a certificate.

    ``witness`` lies in the feasible set (unit ball, Laplacian ellipsoid, mean
    zero) and attains ``value``; its first nonzero coordinate is positive.
    ``case`` names the active KKT case ("a": ball, "b": ellipsoid, "c": both),
    ``iterations`` counts the root-finding steps (nonzero only in case "c"),
    and ``gap`` is the dual objective at ``nu_star`` minus ``value``, which
    weak duality makes nonnegative up to rounding.
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


def eig_sym(m: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix, deterministic per input.

    Raises if the input is not symmetric to within 1e-12 relative.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh(m)
    vectors = _fix_signs(vectors)
    order = np.arange(values.size)
    values.flags.writeable = vectors.flags.writeable = order.flags.writeable = False
    return Spectrum(factors=((values, vectors),), eigenvalues=values, order=order)


def center(y: np.ndarray) -> np.ndarray:
    """Subtract the mean: y~ = (I - 11'/n) y. Rejects NaN and infinite entries."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("expected a nonempty vector")
    if not np.isfinite(y).all():
        raise ValueError("observation contains NaN or infinite values")
    return y - y.mean()


def chi_max(c: np.ndarray, lambdas: np.ndarray, nu: float) -> float:
    """Largest eigenvalue of c c' - nu * diag(lambdas) via the secular equation.

    ``lambdas`` must be strictly positive and ascending; ``nu`` must be
    nonnegative. Components with |c_i| <= 1e-14 * ||c|| are deflated: they
    contribute plain diagonal eigenvalues -nu * lambda_i. On the remaining
    active part, the largest eigenvalue is the unique root above
    -nu * min(active lambdas) of

        sum_i c_i**2 / (theta + nu * lambda_i) = 1,

    solved by bisection-safeguarded Newton. Matches a dense eigendecomposition
    of the same matrix to ~1e-9 relative at a cost of O(len(c)) per call.
    """
    c = np.asarray(c, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    if c.shape != lambdas.shape or c.ndim != 1:
        raise ValueError("c and lambdas must be vectors of equal length")
    if lambdas.size == 0:
        raise ValueError("need at least one eigenvalue")
    if np.any(lambdas <= 0.0):
        raise ValueError("lambdas must be strictly positive")
    if np.any(np.diff(lambdas) < 0.0):
        raise ValueError("lambdas must be ascending")
    nu = float(nu)
    if nu < 0.0:
        raise ValueError(f"nu must be nonnegative, got {nu}")

    norm_c = float(np.linalg.norm(c))
    active = np.abs(c) > 1e-14 * norm_c
    if nu == 0.0 or not active.any():
        # pure rank-one (||c||^2) or pure diagonal (-nu * smallest lambda)
        return norm_c**2 if active.any() else (-nu * float(lambdas[0]) if nu > 0.0 else 0.0)

    csq = c[active] ** 2
    lam = lambdas[active]
    deflated_top = -nu * float(lambdas[~active][0]) if (~active).any() else -math.inf

    # Shift so the pole of interest sits at zero: theta = -nu*lam_min + t, t > 0.
    d_max = -nu * float(lam[0])
    delta = nu * (lam - lam[0])
    total = float(csq.sum())

    def secular(t: float) -> tuple[float, float]:
        terms = csq / (t + delta)
        return float(terms.sum()), float((terms / (t + delta)).sum())

    lo, hi = 0.0, total  # f(0+) = +inf, f(total) <= 1
    t = total
    for _ in range(200):
        val, slope = secular(t)
        if val > 1.0:
            lo = t
        else:
            hi = t
        step = (val - 1.0) / slope  # Newton on decreasing convex f
        t_new = t + step
        if not (lo < t_new < hi):
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 1e-15 * max(t, 1e-300):
            t = t_new
            break
        t = t_new
    theta = d_max + t
    return max(theta, deflated_top)


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


def _reduced_coeffs(spectrum: Spectrum, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of centered y in the nonconstant eigenbasis, and lambda_2..n.

    ``y`` is one observation or an (R, n) block of them, centered row by row.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != spectrum.n:
        raise ValueError(f"observations have shape {y.shape}, expected rows of length {spectrum.n}")
    lambdas = _connected_lambdas(spectrum)
    if not np.isfinite(y).all():
        raise ValueError("observation contains NaN or infinite values")
    return spectrum.project(y - y.mean(axis=-1, keepdims=True)), lambdas


def _dual_objective(c: np.ndarray, lambdas: np.ndarray, nu: float, rho: float) -> float:
    # The clamp at zero accounts for the constant-vector direction, where the
    # full matrix y~ y~' - nu L always has eigenvalue 0; without it the dual
    # is no upper bound once the reduced matrix goes negative definite
    # (rho < lambda_2 regime).
    return max(0.0, chi_max(c, lambdas, nu)) + nu * rho


def _grouped_kkt(s: np.ndarray, lambdas: np.ndarray, rho: float) -> tuple[float, str, float, float, int]:
    """Maximize (c'z)^2 over the unit ball intersected with z' diag(lambdas) z <= rho.

    The problem depends on c only through ``s``, the sums of c_i**2 over the
    eigenvectors of each distinct eigenvalue in ``lambdas``. Returns the value,
    the KKT case, the dual multiplier nu*, the root t (0 outside case "c")
    and the number of root-finding steps. With weights p = s / sum(s), which
    keep every intermediate near 1 whatever the scale of c:
      (a) z = c/||c|| when it already satisfies the ellipsoid, p'lambdas <= rho;
          the value is sum(s) and nu* = 0;
      (b) z proportional to lambdas^-1 * c scaled onto the ellipsoid, when that
          point stays inside the unit ball; nu* = c' diag(lambdas)^-1 c and
          the value is rho * nu*;
      (c) otherwise both constraints are active: z(t)_i ~ c_i / (1 + t*lambda_i)
          normalized to the unit sphere, with t > 0 the root of
          z(t)' diag(lambdas) z(t) = rho (monotone in t, solved by bisection);
          nu* = t * theta with theta = sum_i c_i**2 / (1 + t*lambda_i), the
          largest eigenvalue of c c' - nu* diag(lambdas).
    """
    total = float(s.sum())
    if total == 0.0:
        return 0.0, "a", 0.0, 0.0, 0
    p = s / total
    if float(p @ lambdas) <= rho:
        return total, "a", 0.0, 0.0, 0

    inv = p / lambdas
    quad = float(inv.sum())  # c' diag(lambdas)^-1 c / total
    if rho * float((inv / lambdas).sum()) <= quad:  # ||z||**2 <= 1
        return rho * quad * total, "b", quad * total, 0.0, 0

    def ellipsoid_gap(t: float) -> float:
        q = p / (1.0 + t * lambdas) ** 2  # z(t)_i**2 before normalizing
        return float(lambdas @ q) / float(q.sum()) - rho

    iterations = 0
    t_hi = 1.0
    for _ in range(200):
        iterations += 1
        if ellipsoid_gap(t_hi) < 0.0:
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
        if t_hi - t_lo <= 1e-14 * max(t_hi, 1.0):
            break
    w = p / (1.0 + t_hi * lambdas)
    theta = float(w.sum())
    value = theta**2 / float((w / (1.0 + t_hi * lambdas)).sum())
    return value * total, "c", t_hi * theta * total, t_hi, iterations


def _solve_block(spectrum: Spectrum, y: np.ndarray, rho: float) -> tuple[np.ndarray, list]:
    """Coefficients of each row of ``y`` and its :func:`_grouped_kkt` result; ``rho`` is taken as checked."""
    coeffs, lambdas = _reduced_coeffs(spectrum, y)
    starts, means = spectrum.groups
    sums = coeffs * coeffs
    if starts.size < lambdas.size:
        sums = np.add.reduceat(sums, starts, axis=1)
    return coeffs, [_grouped_kkt(row, means, rho) for row in sums]


def _sss_values(spectrum: Spectrum, y: np.ndarray, rho: float) -> np.ndarray:
    """Values of the statistic for the rows of an (R, n) block; ``rho`` is taken as checked."""
    return np.array([solved[0] for solved in _solve_block(spectrum, y, rho)[1]])


def sss(spectrum: Spectrum, y: np.ndarray, rho: float) -> SssResult:
    """Spectral scan statistic by one KKT solve, certified by the dual.

    The KKT case analysis of :func:`_grouped_kkt` runs on one term per distinct
    eigenvalue, the sum of the squared coefficients of its eigenvectors, and
    gives the value, the case, the dual multiplier nu* and, in case "c", the
    root t. The primal maximizer z in the nonconstant eigenbasis is rebuilt
    from the ungrouped coefficients c: c/||c|| (case "a"), c/lambda scaled
    onto the ellipsoid ("b") or c/(1 + t*lambda) normalized ("c"). The dual
    objective max(0, chi_max(c, lambdas, nu*)) + nu*rho is evaluated once, on
    the ungrouped terms; by weak duality it bounds the statistic from above,
    and ``gap`` reports the difference, so it also checks the grouping. A
    constant observation yields 0 in case "a" with a zero gap.
    """
    rho = float(rho)
    if not (math.isfinite(rho) and rho > 0.0):
        raise ValueError(f"rho must be positive and finite, got {rho}")
    # a one-row block, so that _sss_values on the same row gives the same bits
    y = np.asarray(y, dtype=float)[None]
    (c,), ((value, case, nu_star, t, iterations),) = _solve_block(spectrum, y, rho)
    lambdas = spectrum.eigenvalues[1:]
    # z does not depend on the scale of c; rescaling c to a largest entry of 1
    # keeps its squares finite
    largest = float(np.abs(c).max())
    if largest == 0.0:
        z = c
    elif case == "a":
        z = c / largest
        z /= np.linalg.norm(z)
    elif case == "b":
        z = c / (largest * lambdas)
        z *= math.sqrt(rho / float(z @ (lambdas * z)))
    else:
        z = c / (largest * (1.0 + t * lambdas))
        z /= np.linalg.norm(z)
    gap = _dual_objective(c, lambdas, nu_star, rho) - value

    witness = spectrum.expand(z)
    nz = np.nonzero(np.abs(witness) > 1e-14 * max(1.0, float(np.abs(witness).max())))[0]
    if nz.size and witness[nz[0]] < 0:
        witness = -witness
    return SssResult(
        value=value, nu_star=nu_star, witness=witness, case=case, iterations=iterations, gap=gap
    )


def write_spectrum_csv(spectrum: Spectrum, path, vectors_path=None) -> None:
    """Write eigenvalues one per line; optionally the basis in column-major order.

    All values use 17 significant digits, enough to round-trip doubles.
    """
    Path(path).write_text(
        "".join(f"{v:.17g}\n" for v in spectrum.eigenvalues)
    )
    if vectors_path is not None:
        Path(vectors_path).write_text("".join(f"{x:.17g}\n" for x in spectrum.eigenvectors.T.flat))

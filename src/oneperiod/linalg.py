"""Dense linear-algebra kernels.

SVD-based pseudo-inverse with explicit rank decision, and a deterministic
active-set nonnegative least squares used to project onto finitely
generated cones. Everything here is a pure function on small dense arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

#: singular values below rtol * sigma_max are treated as zero
DEFAULT_PINV_RTOL = 1e-10

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PseudoInverseResult:
    """Moore-Penrose inverse together with the rank decision that produced it."""

    pinv: np.ndarray
    rank: int
    cutoff: float


@dataclass(frozen=True)
class ConeProjection:
    """Closest point of a finitely generated cone, with its generator weights."""

    point: np.ndarray
    coefficients: np.ndarray
    residual_norm: float


def pinv(matrix, rtol: float = DEFAULT_PINV_RTOL) -> PseudoInverseResult:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values at or below ``rtol * sigma_max`` are treated as zero;
    the number of surviving singular values is reported as the rank.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if not rtol > 0.0:
        raise ValueError(f"rtol must be positive, got {rtol!r}")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    cutoff = rtol * (float(s[0]) if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    if rank == 0:
        inv = np.zeros((m.shape[1], m.shape[0]))
    else:
        inv = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
    return PseudoInverseResult(pinv=inv, rank=rank, cutoff=cutoff)


def nnls(generators, target, *, max_iter: int | None = None,
         kkt_tol: float | None = None) -> ConeProjection:
    """Project ``target`` onto the cone spanned by the generator columns.

    Solves ``min ||G c - b||_2`` subject to ``c >= 0`` with the active-set
    iteration of Lawson and Hanson (1974). Deterministic: the entering index
    is the one with the most negative gradient (largest dual), lowest index
    on ties.

    The passive columns ``G[:, P]`` keep a QR factor that is updated as they
    enter and leave (Bro & De Jong 1997), so the least-squares solve on the
    passive set costs O(m |P|) instead of a fresh factorization. The only
    pass over all of ``G`` per outer step is the dual ``G'r``; the
    iterates are those of the textbook method, up to rounding.

    Parameters
    ----------
    generators : array_like, shape (m, k)
        One generator per column.
    target : array_like, shape (m,)
        Point to project.
    max_iter : int, optional
        Outer-iteration cap; defaults to ``10 * k``.
    kkt_tol : float, optional
        Tolerance on the KKT conditions; defaults to ``1e-10 * ||G'b||_inf``.

    Raises
    ------
    ConvergenceError
        If the cap is hit before the KKT conditions hold, or if the entering
        generator is linearly dependent on the passive ones within rounding
        (possible only when ``kkt_tol`` is below the rounding level of the
        dual). The exception carries the best iterate in its ``best``
        attribute.
    """
    g = np.asarray(generators, dtype=float)
    b = np.asarray(target, dtype=float)
    if g.ndim != 2:
        raise ValueError(f"generators must form a matrix, got shape {g.shape}")
    if g.shape[1] < 1:
        raise ValueError("need at least one generator column")
    if b.shape != (g.shape[0],):
        raise ValueError(f"target shape {b.shape} does not match generator rows {g.shape[0]}")
    # max |G| without an m x k temporary; NaN or inf makes it non-finite
    g_max = max(float(g.max(initial=0.0)), -float(g.min(initial=0.0)))
    if not (np.isfinite(g_max) and np.isfinite(b).all()):
        raise ValueError("generators and target must be finite")

    m, k = g.shape
    if max_iter is None:
        max_iter = 10 * k
    residual = b
    dual = b @ g  # g' (b - g c): negative gradient of the objective
    if kkt_tol is None:
        kkt_tol = 1e-10 * float(np.abs(dual).max())

    factor = _PassiveQR(g, b)
    coeff = np.empty(0)  # coefficients of the passive columns, in factor order
    outer = 0
    while True:
        passive = factor.index[:factor.size]
        passive_dual = dual[passive]
        dual[passive] = -np.inf
        enter = int(np.argmax(dual))
        if not dual[enter] > kkt_tol:
            break
        if outer >= max_iter:
            best = _projection(g, b, factor, coeff)
            raise ConvergenceError(
                f"nnls hit its iteration cap ({max_iter}) before satisfying "
                f"the KKT conditions (best residual {best.residual_norm!r})",
                best=best, iterations=outer)
        outer += 1
        # Duals within the rounding bound of the largest may tie in exact
        # arithmetic (duplicate generators), but BLAS can round identical
        # columns differently; recompute those in one summation order.
        band = 4.0 * m * _EPS * g_max * float(np.abs(residual).sum())
        near = np.flatnonzero(dual >= dual[enter] - band)
        if near.size > 1:
            enter = int(near[np.argmax((g[:, near] * residual[:, None]).sum(axis=0))])
        if not factor.push(enter):
            raise ConvergenceError(
                f"nnls cannot add generator {enter}: it is linearly dependent on "
                f"the passive generators within rounding, so kkt_tol ({kkt_tol!r}) "
                "is below the rounding level of the dual",
                best=_projection(g, b, factor, coeff), iterations=outer)
        coeff = np.append(coeff, 0.0)
        while True:
            trial = factor.solve()
            if trial.min() > 0.0:
                coeff = trial
                break
            # Step toward the trial point until the first passive coefficient
            # hits zero, then retire every coefficient pinned at the bound.
            blocking = np.flatnonzero(trial <= 0.0)
            gap = coeff[blocking] - trial[blocking]
            ratio = np.where(gap > 0.0, coeff[blocking] / np.where(gap > 0.0, gap, 1.0), 0.0)
            # smallest ratio, lowest generator index on ties
            stop = int(np.lexsort((factor.index[blocking], ratio))[0])
            coeff = coeff + float(ratio[stop]) * (trial - coeff)
            coeff[blocking[stop]] = 0.0
            keep = ~(coeff <= 0.0)
            factor.keep(keep)
            coeff = coeff[keep]
            if not factor.size:
                break
        residual = b - factor.combine(coeff)
        np.matmul(residual, g, out=dual)

    dual[passive] = passive_dual
    result = _projection(g, b, factor, coeff)
    grad = -dual  # g' (g c - b)
    if (grad < -kkt_tol).any() or (result.coefficients * grad > kkt_tol).any():
        raise ConvergenceError(
            "nnls terminated without a valid KKT certificate "
            f"(worst gradient {float(grad.min())!r})",
            best=result, iterations=outer)
    return result


class _PassiveQR:
    """QR factor of the passive columns ``G[:, P]``, kept in the order they entered.

    Row ``i`` of ``columns`` is the i-th passive generator and row ``i`` of
    ``basis`` its orthonormal direction, from classical Gram-Schmidt with one
    re-orthogonalization. Instead of the triangular factor R, its inverse is
    kept: appending a column extends it by one column in O(|P|^2), and a
    least-squares solve is one product with ``Q'b``.
    """

    def __init__(self, g: np.ndarray, b: np.ndarray):
        m = g.shape[0]
        depth = min(m, g.shape[1])
        self.g = g
        self.b = b
        self.size = 0
        self.index = np.empty(depth, dtype=np.intp)
        self.columns = np.empty((depth, m))
        self.basis = np.empty((depth, m))
        self.qtb = np.empty(depth)
        self.rinv = np.zeros((depth, depth))  # stays zero below the diagonal

    def push(self, j: int) -> bool:
        """Append generator ``j``; False, leaving the factor unchanged, when
        it is linearly dependent on the passive columns within rounding
        (the cutoff of ``numpy.linalg.lstsq``'s default ``rcond``)."""
        p = self.size
        if p == self.index.size:
            return False
        column = self.g[:, j]
        q = self.basis[:p]
        h = q @ column
        v = column - h @ q
        again = q @ v
        v -= again @ q
        h += again
        rho = float(np.sqrt(v @ v))
        if not rho > _EPS * max(column.size, p + 1) * float(np.sqrt(column @ column)):
            return False
        self.index[p] = j
        self.columns[p] = column
        self.basis[p] = v / rho
        self.qtb[p] = self.basis[p] @ self.b
        # inverse of [[R, h], [0, rho]] from the inverse of R
        self.rinv[:p, p] = (self.rinv[:p, :p] @ h) / -rho
        self.rinv[p, p] = 1.0 / rho
        self.size = p + 1
        return True

    def keep(self, mask: np.ndarray) -> None:
        """Retire the passive columns where ``mask`` is False.

        The factor of the columns ahead of the first retired one is
        unchanged; the survivors behind it are appended again.
        """
        first = int(np.argmin(mask))
        if mask[first]:
            return
        trailing = self.index[first:self.size][mask[first:]].copy()
        self.size = first
        for j in trailing:
            # A subset of independent columns stays independent, so this holds.
            self.push(int(j))

    def solve(self) -> np.ndarray:
        """Least-squares coefficients of ``b`` on the passive columns."""
        p = self.size
        return self.rinv[:p, :p] @ self.qtb[:p]

    def combine(self, coeff: np.ndarray) -> np.ndarray:
        """``G[:, P] @ coeff``."""
        return coeff @ self.columns[:self.size]


def _projection(g: np.ndarray, b: np.ndarray, factor: _PassiveQR,
                coeff: np.ndarray) -> ConeProjection:
    point = factor.combine(coeff)
    coefficients = np.zeros(g.shape[1])
    coefficients[factor.index[:factor.size]] = coeff
    return ConeProjection(point=point, coefficients=coefficients,
                          residual_norm=float(np.linalg.norm(point - b)))

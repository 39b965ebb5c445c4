"""Dense linear-algebra kernels.

A deterministic active-set nonnegative least squares, used to project onto
finitely generated cones. Everything here is a pure function on small dense
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .market import RANK_RTOL

_EPS = float(np.finfo(float).eps)

#: a float32 band holding more than one generator in this many: one float64 pass decides
_EXACT_SHARE = 8
#: outer-step cap of ``nnls``, per generator
_STEPS_PER_GENERATOR = 10


@dataclass(frozen=True)
class ConeProjection:
    """Closest point of a finitely generated cone, with its generator weights."""

    point: np.ndarray
    coefficients: np.ndarray
    residual_norm: float


def nnls(generators, target) -> ConeProjection:
    """Project ``target`` onto the cone spanned by the generator columns.

    Solves ``min ||G c - b||_2`` subject to ``c >= 0`` with the active-set
    iteration of Lawson and Hanson (1974). Deterministic: the entering index
    is the one with the most negative gradient (largest dual), lowest index
    on ties.

    The passive columns ``G[:, P]`` keep a QR factor that is updated as they
    enter and leave (Bro & De Jong 1997), so the only pass over all of ``G``
    per outer step is the dual ``G'r``. It reads a float32 copy of ``G``,
    made once per call, at half the bytes; a rigorous bound on its rounding
    keeps every decision exact, so the iterates are those of the textbook
    method, up to float64 rounding. The iteration stops once no dual exceeds
    ``RANK_RTOL * ||G'b||_inf``, after at most ``10 * k`` outer steps.

    Parameters
    ----------
    generators : array_like, shape (m, k)
        One generator per column.
    target : array_like, shape (m,)
        Point to project.

    Raises
    ------
    ConvergenceError
        If the cap is hit before the KKT conditions hold, or if the entering
        generator is linearly dependent on the passive ones within rounding
        (possible only when the stop is below the rounding level of the
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
    pricing = _Pricing(g)
    if not (np.isfinite(pricing.g_max) and np.isfinite(b).all()):
        raise ValueError("generators and target must be finite")

    max_iter = _STEPS_PER_GENERATOR * g.shape[1]
    priced = pricing.price(b)  # g' (b - g c) at c = 0: negative gradient of the objective
    kkt_tol = RANK_RTOL * pricing.largest_magnitude(b, priced)

    factor = _PassiveQR(g, b)
    coeff = np.empty(0)  # coefficients of the passive columns, in factor order
    residual = b
    enter = pricing.entering(residual, factor.index[:0], kkt_tol, priced)
    outer = 0
    while enter is not None:
        if outer >= max_iter:
            best = _projection(g, b, factor, coeff)
            raise ConvergenceError(
                f"nnls hit its iteration cap ({max_iter}) before satisfying "
                f"the KKT conditions (best residual {best.residual_norm!r})",
                best=best, iterations=outer)
        outer += 1
        if not factor.push(enter):
            raise ConvergenceError(
                f"nnls cannot add generator {enter}: it is linearly dependent on "
                f"the passive generators within rounding, so the stop ({kkt_tol!r}) "
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
        enter = pricing.entering(residual, factor.index[:factor.size], kkt_tol)

    result = _projection(g, b, factor, coeff)
    # g' (g c - b) vanishes on the passive set, in the units of the dual that
    # the stop test bounds on the others
    grad = factor.columns[:factor.size] @ -residual
    if not (np.abs(grad) <= kkt_tol).all():
        raise ConvergenceError(
            "nnls terminated without a valid KKT certificate "
            f"(largest passive |gradient| {float(np.abs(grad).max())!r})",
            best=result, iterations=outer)
    return result


class _Pricing:
    """Chooses the entering generator from the dual ``G'r``, priced in float32.

    ``G`` is copied to float32 once, scaled by a power of two when ``max|G|``
    lies outside [2**-100, 2**100] so that products and sums stay in range.
    """

    def __init__(self, g: np.ndarray):
        self.g, self.shift = g, 0
        with np.errstate(over="ignore"):  # entries beyond float32's range are rescaled below
            self.g32 = g.astype(np.float32)
        #: max |G|, up to the float32 rounding of the copy when it is not scaled
        self.g_max = self.g32_max = _abs_max(self.g32)
        if not 2.0**-100 <= self.g32_max <= 2.0**100:
            self.g_max = _abs_max(g)  # NaN or inf when G is not finite
            if np.isfinite(self.g_max):
                self.shift = math.frexp(self.g_max)[1]
                self.g32 = np.ldexp(g, -self.shift).astype(np.float32)
                self.g32_max = _abs_max(self.g32)
        self.dual32 = np.empty(g.shape[1], dtype=np.float32)

    def price(self, residual: np.ndarray):
        """``(dual32, shift, err)`` with ``|dual32[j] - 2**-shift (G'r)_j| <= err``."""
        e = math.frexp(float(np.abs(residual).max()))[1]
        scaled = np.ldexp(residual, -e)  # r_s, max |r_s| < 1
        np.matmul(scaled.astype(np.float32), self.g32, out=self.dual32)
        # For G_s = 2**-shift G and r_s, Higham's gamma_m for the float32 dot
        # product (Accuracy and Stability of Numerical Algorithms, ch. 3) and
        # the casts' relative rounding of 2**-24 each are within
        # (m + 2) 2**-23 max|G_s| ||r_s||_1; below float32's normal range each
        # cast entry and product may lose 2**-150, m 2**-148 (1 + max|G_s|) in all.
        m = residual.size
        err = ((m + 2) * 2.0**-23 * self.g32_max * float(np.abs(scaled).sum())
               + m * 2.0**-148 * (1.0 + self.g32_max))
        return self.dual32, self.shift + e, err

    def price64(self, residual: np.ndarray):
        """``price`` in float64 through BLAS; the bound is gamma_m with room to spare."""
        err = 2.0 * residual.size * _EPS * self.g_max * float(np.abs(residual).sum())
        return residual @ self.g, 0, err

    def largest_magnitude(self, residual: np.ndarray, priced) -> float:
        """``max |G'r|``, summed exactly over the generators that may attain it."""
        dual, shift, err = priced
        magnitude = np.abs(dual)
        near = np.flatnonzero(magnitude >= _floor(magnitude, float(magnitude.max()) - 2.0 * err))
        if near.size > 1 and near.size * _EXACT_SHARE > dual.size:
            return float(np.abs(self.price64(residual)[0]).max())
        return float(np.abs(self._sums(residual, near)).max())

    def entering(self, residual: np.ndarray, passive: np.ndarray, kkt_tol: float,
                 priced=None) -> int | None:
        """The non-passive generator with the largest dual, lowest index on ties,
        or None when none exceeds ``kkt_tol``; ``priced`` is ``price(residual)``."""
        dual, shift, err = self.price(residual) if priced is None else priced
        dual[passive] = -np.inf
        top = float(dual.max())
        with np.errstate(over="ignore"):
            if top + err <= np.ldexp(kkt_tol, -shift):
                return None
        # exact_j <= dual_j + err < top - err <= the exact dual at the argmax
        near = np.flatnonzero(dual >= _floor(dual, top - 2.0 * err))
        if dual.dtype == np.float32 and near.size > 1 and near.size * _EXACT_SHARE > dual.size:
            return self.entering(residual, passive, kkt_tol, self.price64(residual))
        sums = self._sums(residual, near)
        best = int(np.argmax(sums))
        return int(near[best]) if sums[best] > kkt_tol else None

    def _sums(self, residual: np.ndarray, near: np.ndarray) -> np.ndarray:
        # Column by column in one order, so that duplicate generators tie
        # exactly: BLAS can round identical columns differently.
        return (self.g[:, near] * residual[:, None]).sum(axis=0)


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


def _floor(a: np.ndarray, value: float):
    """The largest number of ``a``'s dtype at or below ``value``."""
    floor = a.dtype.type(value)
    return np.nextafter(floor, a.dtype.type(-np.inf)) if float(floor) > value else floor


def _abs_max(a: np.ndarray) -> float:
    """max |a| without a temporary the size of ``a``; NaN when ``a`` holds one."""
    return max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))


def _projection(g: np.ndarray, b: np.ndarray, factor: _PassiveQR,
                coeff: np.ndarray) -> ConeProjection:
    point = factor.combine(coeff)
    coefficients = np.zeros(g.shape[1])
    coefficients[factor.index[:factor.size]] = coeff
    return ConeProjection(point=point, coefficients=coefficients,
                          residual_norm=float(np.linalg.norm(point - b)))

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

    Solves ``min ||G c - b||_2`` subject to ``c >= 0`` with a Lawson-Hanson
    style active-set iteration. Deterministic: the entering index is the one
    with the most negative gradient (largest dual), lowest index on ties.

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
        If the cap is hit before the KKT conditions hold. The exception
        carries the best iterate in its ``best`` attribute.
    """
    g = np.asarray(generators, dtype=float)
    b = np.asarray(target, dtype=float)
    if g.ndim != 2:
        raise ValueError(f"generators must form a matrix, got shape {g.shape}")
    if g.shape[1] < 1:
        raise ValueError("need at least one generator column")
    if b.shape != (g.shape[0],):
        raise ValueError(f"target shape {b.shape} does not match generator rows {g.shape[0]}")
    if not (np.isfinite(g).all() and np.isfinite(b).all()):
        raise ValueError("generators and target must be finite")

    k = g.shape[1]
    if max_iter is None:
        max_iter = 10 * k
    dual0 = g.T @ b
    if kkt_tol is None:
        kkt_tol = 1e-10 * float(np.abs(dual0).max())

    coeff = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    dual = dual0.copy()  # g' (b - g c): negative gradient of the objective
    outer = 0
    while True:
        candidates = np.flatnonzero(~passive & (dual > kkt_tol))
        if candidates.size == 0:
            break
        if outer >= max_iter:
            best = _projection(g, b, coeff)
            raise ConvergenceError(
                f"nnls hit its iteration cap ({max_iter}) before satisfying "
                f"the KKT conditions (best residual {best.residual_norm!r})",
                best=best, iterations=outer)
        outer += 1
        enter = int(candidates[np.argmax(dual[candidates])])
        passive[enter] = True
        while True:
            idx = np.flatnonzero(passive)
            trial = np.zeros(k)
            trial[idx] = np.linalg.lstsq(g[:, idx], b, rcond=None)[0]
            if trial[idx].min() > 0.0:
                coeff = trial
                break
            # Step toward the trial point until the first passive coefficient
            # hits zero, then retire every coefficient pinned at the bound.
            blocking = idx[trial[idx] <= 0.0]
            gap = coeff[blocking] - trial[blocking]
            ratio = np.where(gap > 0.0, coeff[blocking] / np.where(gap > 0.0, gap, 1.0), 0.0)
            stop = int(np.argmin(ratio))
            coeff = coeff + float(ratio[stop]) * (trial - coeff)
            coeff[blocking[stop]] = 0.0
            drop = passive & (coeff <= 0.0)
            coeff[drop] = 0.0
            passive &= ~drop
            if not passive.any():
                break
        dual = g.T @ (b - g @ coeff)

    result = _projection(g, b, coeff)
    grad = -dual  # g' (g c - b)
    if (grad < -kkt_tol).any() or (coeff * grad > kkt_tol).any():
        raise ConvergenceError(
            "nnls terminated without a valid KKT certificate "
            f"(worst gradient {float(grad.min())!r})",
            best=result, iterations=outer)
    return result


def _projection(g: np.ndarray, b: np.ndarray, coeff: np.ndarray) -> ConeProjection:
    point = g @ coeff
    return ConeProjection(point=point, coefficients=coeff.copy(),
                          residual_norm=float(np.linalg.norm(point - b)))

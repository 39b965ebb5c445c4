"""Beta and the realized-return form of the CAPM identity.

The headline check: for efficient portfolios, ``R(xi) - R(xi0)`` equals
``beta * (R(xi1) - R(xi0))`` outcome by outcome, not merely in expectation.
The classical expectation form follows by averaging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError
from .market import ROUNDING_RTOL, Market, _scaled, realized_return


@dataclass(frozen=True)
class IdentityReport:
    """Pointwise residuals of the realized-return identity for one triple."""

    beta: float
    residual_per_outcome: np.ndarray
    max_abs_residual: float
    expectation_gap: float


def _cov(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(p @ ((a - p @ a) * (b - p @ b)))


def _beta(p: np.ndarray, d: np.ndarray, e: np.ndarray) -> float:
    var_e = _cov(p, e, e)
    scale = float(np.abs(e).max())
    if not var_e > _scaled(ROUNDING_RTOL, scale * scale):
        raise DegenerateProblemError(
            "fund return profiles are identical; the beta denominator vanishes")
    return _cov(p, d, e) / var_e


def verify_realized_identity(market: Market, candidate, fund0, fund1) -> IdentityReport:
    """Residual of ``R - R0 = beta (R1 - R0)``, outcome by outcome.

    ``beta`` is Cov(R - R0, R1 - R0) / Var(R1 - R0) under the outcome
    probabilities, and ``expectation_gap`` is the identity's expectation
    form, ``|E[R - R0] - beta E[R1 - R0]|``. For efficient triples the
    residual vanishes (to rounding); for arbitrary portfolios the report
    simply shows how far off they are.
    """
    p = market.probabilities
    r = realized_return(market, candidate).per_outcome
    r0 = realized_return(market, fund0).per_outcome
    r1 = realized_return(market, fund1).per_outcome
    d, e = r - r0, r1 - r0
    b = _beta(p, d, e)
    residual = d - b * e
    return IdentityReport(
        beta=b,
        residual_per_outcome=residual,
        max_abs_residual=float(np.abs(residual).max()),
        expectation_gap=float(abs(p @ d - b * (p @ e))),
    )

"""Beta and the realized-return form of the CAPM identity.

The headline check: for efficient portfolios, ``R(xi) - R(xi0)`` equals
``beta * (R(xi1) - R(xi0))`` outcome by outcome, not merely in expectation.
The classical expectation form follows by averaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateProblemError, ValidationError
from .market import Market, realized_return

_VAR_FLOOR_RTOL = 1e-12


@dataclass(frozen=True)
class IdentityReport:
    """Pointwise residuals of the realized-return identity for one triple."""

    beta: float
    residual_per_outcome: np.ndarray
    max_abs_residual: float
    expectation_gap: float


class ClassicalCapm(NamedTuple):
    beta: float
    lhs: float
    rhs: float


def _excess_profiles(market: Market, candidate, fund0, fund1):
    p = market.probabilities
    r = realized_return(market, candidate).per_outcome
    r0 = realized_return(market, fund0).per_outcome
    r1 = realized_return(market, fund1).per_outcome
    return p, r - r0, r1 - r0


def _cov(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(p @ ((a - p @ a) * (b - p @ b)))


def beta(market: Market, candidate, fund0, fund1) -> float:
    """Cov(R - R0, R1 - R0) / Var(R1 - R0) under the outcome probabilities."""
    return _beta(*_excess_profiles(market, candidate, fund0, fund1))


def _beta(p: np.ndarray, d: np.ndarray, e: np.ndarray) -> float:
    var_e = _cov(p, e, e)
    floor = _VAR_FLOOR_RTOL * max(1.0, float(np.abs(e).max())) ** 2
    if not var_e > floor:
        raise DegenerateProblemError(
            "fund return profiles are identical; the beta denominator vanishes")
    return _cov(p, d, e) / var_e


def verify_realized_identity(market: Market, candidate, fund0, fund1) -> IdentityReport:
    """Residual of ``R - R0 = beta (R1 - R0)``, outcome by outcome.

    For efficient triples the residual vanishes (to rounding); for arbitrary
    portfolios the report simply shows how far off they are.
    """
    p, d, e = _excess_profiles(market, candidate, fund0, fund1)
    b = _beta(p, d, e)
    residual = d - b * e
    return IdentityReport(
        beta=b,
        residual_per_outcome=residual,
        max_abs_residual=float(np.abs(residual).max()),
        expectation_gap=float(abs(p @ d - b * (p @ e))),
    )


def classical_capm(market: Market, candidate, market_portfolio, riskless) -> ClassicalCapm:
    """Expectation form: ``E[R] - R0`` vs ``beta * (E[R1] - R0)`` with riskless xi0."""
    riskless_profile = realized_return(market, riskless)
    riskless_floor = _VAR_FLOOR_RTOL * max(1.0, float(np.abs(riskless_profile.per_outcome).max())) ** 2
    if not riskless_profile.variance <= riskless_floor:
        raise ValidationError(
            "the portfolio passed as riskless has nonzero return variance "
            f"({riskless_profile.variance!r})")
    p = market.probabilities
    r = realized_return(market, candidate).per_outcome
    r1 = realized_return(market, market_portfolio).per_outcome
    var1 = _cov(p, r1, r1)
    floor = _VAR_FLOOR_RTOL * max(1.0, float(np.abs(r1).max())) ** 2
    if var1 <= floor:
        raise DegenerateProblemError("market portfolio has zero return variance")
    b = _cov(p, r, r1) / var1
    r0 = riskless_profile.mean
    return ClassicalCapm(beta=b, lhs=float(p @ r) - r0, rhs=b * (float(p @ r1) - r0))

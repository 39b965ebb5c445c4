"""Constructive no-arbitrage test.

The price vector is projected onto the cone generated by the payoff
columns (one generator per outcome). A residual within tolerance recovers
nonnegative state prices: a pricing measure whose normalization is the
risk-neutral measure and whose mass fixes the implied riskless return.
Otherwise the projection gap itself is an arbitrage portfolio: strictly
negative cost, nonnegative payoff in every outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError
from .linalg import nnls
from .market import EQUALITY_TOL, ROUNDING_RTOL, Market, _scaled


@dataclass(frozen=True)
class PricingMeasure:
    """Nonnegative state prices reproducing the market prices.

    ``strictly_positive`` is False when some outcome carries (numerically)
    zero weight; ``near_boundary`` flags residuals within a factor two of
    the acceptance threshold.
    """

    state_prices: np.ndarray
    mass: float
    risk_neutral: np.ndarray
    implied_return: float
    strictly_positive: bool
    near_boundary: bool
    residual_norm: float


@dataclass(frozen=True)
class ArbitrageCertificate:
    """Portfolio with negative cost and nonnegative payoff in every outcome."""

    portfolio: np.ndarray
    cost: float
    worst_payoff: float


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    slack: float


@dataclass(frozen=True)
class CheckReport:
    checks: tuple[ConditionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_arbitrage(market: Market, tol: float = EQUALITY_TOL):
    """Return a PricingMeasure or an ArbitrageCertificate for ``market``.

    Exactly one of the two outcomes is produced. Solver non-convergence
    propagates as ConvergenceError with diagnostics attached.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    projection = nnls(market.payoffs, market.prices)
    threshold = _scaled(tol, float(np.linalg.norm(market.prices)))
    if projection.residual_norm <= threshold:
        weights = projection.coefficients
        mass = float(weights.sum())
        if not mass > tol:
            raise DegenerateProblemError(
                f"recovered state prices have near-zero total mass ({mass!r}); "
                "the implied return is undefined")
        return PricingMeasure(
            state_prices=weights,
            mass=mass,
            risk_neutral=weights / mass,
            implied_return=1.0 / mass,
            strictly_positive=bool((weights > tol).all()),
            near_boundary=bool(projection.residual_norm > 0.5 * threshold),
            residual_norm=projection.residual_norm,
        )
    xi = projection.point - market.prices
    return ArbitrageCertificate(
        portfolio=xi,
        cost=float(xi @ market.prices),
        worst_payoff=float((xi @ market.payoffs).min()),
    )


def verify_certificate(market: Market, result, tol: float = EQUALITY_TOL) -> CheckReport:
    """Re-derive every defining condition of ``result`` with plain matrix arithmetic.

    Independent of the solver path: only prices, payoffs and the stored
    portfolio/weights enter. Each condition reports pass/fail and its slack
    (distance to violation; negative when violated).
    """
    if isinstance(result, PricingMeasure):
        return _verify_measure(market, result, tol)
    if isinstance(result, ArbitrageCertificate):
        return _verify_certificate(market, result, tol)
    raise TypeError(f"expected PricingMeasure or ArbitrageCertificate, got {type(result).__name__}")


def _verify_measure(market: Market, measure: PricingMeasure, tol: float) -> CheckReport:
    weights = np.asarray(measure.state_prices, dtype=float)
    low = float(weights.min())
    residual = float(np.linalg.norm(market.payoffs @ weights - market.prices))
    bound = _scaled(tol, float(np.linalg.norm(market.prices)))
    q_gap = float(abs(np.asarray(measure.risk_neutral, dtype=float).sum() - 1.0))
    r_gap = float(abs(measure.implied_return * measure.mass - 1.0))
    return CheckReport(checks=(
        ConditionCheck(name="state prices are nonnegative", passed=low >= 0.0, slack=low),
        ConditionCheck(name="state prices reproduce the instrument prices",
                       passed=residual <= bound, slack=bound - residual),
        ConditionCheck(name="risk-neutral weights sum to one",
                       passed=q_gap <= ROUNDING_RTOL, slack=ROUNDING_RTOL - q_gap),
        ConditionCheck(name="implied return is the reciprocal mass",
                       passed=r_gap <= ROUNDING_RTOL, slack=ROUNDING_RTOL - r_gap),
    ))


def _verify_certificate(market: Market, certificate: ArbitrageCertificate,
                        tol: float) -> CheckReport:
    xi = np.asarray(certificate.portfolio, dtype=float)
    cost = float(xi @ market.prices)
    payoffs = market.payoffs
    worst = float((xi @ payoffs).min())
    payoff_floor = _scaled(tol, float(payoffs.max()), -float(payoffs.min()))
    return CheckReport(checks=(
        ConditionCheck(name="portfolio cost is negative", passed=cost < 0.0, slack=-cost),
        ConditionCheck(name="payoff is nonnegative in every outcome",
                       passed=worst >= -payoff_floor, slack=worst + payoff_floor),
    ))


def risk_neutral_consistency(market: Market, measure: PricingMeasure,
                             tol: float = EQUALITY_TOL) -> CheckReport:
    """Check that every instrument's expected payoff under Q prices it at R * x_i.

    By linearity this extends to all portfolios: under the risk-neutral
    measure every unit-cost portfolio has expected realized return R.
    """
    q = np.asarray(measure.risk_neutral, dtype=float)
    r = measure.implied_return
    bound = _scaled(_scaled(tol, float(np.linalg.norm(market.prices))), abs(r))
    gaps = np.abs(market.payoffs @ q - r * market.prices).tolist()
    return CheckReport(checks=tuple(
        ConditionCheck(name=f"E_Q[payoff of '{name}'] equals R * price",
                       passed=gap <= bound, slack=bound - gap)
        for name, gap in zip(market.instruments, gaps)))

"""Efficient portfolio construction.

Minimum-variance portfolios for a prescribed expected realized return, in
the two regimes the model supports:

* invertible payoff covariance: the closed-form solution of the
  equality-constrained quadratic minimization, driven by the scalar
  constants A, B, C, D;
* singular covariance with a riskless portfolio: every efficient portfolio
  is a mix of the riskless portfolio and the tangency fund, and the mixing
  weight doubles as the portfolio's beta against the tangency fund.

Markets with singular covariance and no riskless portfolio are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ArbitragePresentError, DegenerateProblemError,
                     SingularCovarianceError, UnsupportedMarketError, ValidationError)
from .linalg import DEFAULT_PINV_RTOL
from .market import Market, Moments, ZERO_COST_RTOL, moments, realized_return

#: residual threshold (times sqrt(n_outcomes)) for the unit-payoff combination
RISKLESS_RESIDUAL_TOL = 1e-9

MODE_NONSINGULAR = "nonsingular"
MODE_RISKLESS = "riskless_route"

_NULL_COST_RTOL = 1e-9
_TARGET_MATCH_RTOL = 1e-12
_DEGENERATE_D_RTOL = 1e-12
_COST_CHECK_TOL = 1e-9
_MEAN_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class FrontierConstants:
    """Scalar constants of the closed-form frontier.

    ``a = x' V^-1 x``, ``b = x' V^-1 E[X]``, ``c = E[X]' V^-1 E[X]`` and
    ``d = a c - b^2``, with x the price vector and V the payoff covariance.
    """

    a: float
    b: float
    c: float
    d: float


@dataclass(frozen=True)
class RisklessInfo:
    """Riskless portfolio (unit cost), its constant gross return, and the
    tangency fund (unit cost) when that fund is non-degenerate."""

    portfolio: np.ndarray
    gross_return: float
    tangency: np.ndarray | None


@dataclass(frozen=True)
class FrontierSolution:
    """Efficient portfolio at a target expected return.

    ``portfolio`` has unit cost. In ``nonsingular`` mode ``lam``/``mu`` are
    the stationarity multipliers of the variance minimization. In
    ``riskless_route`` mode ``mu`` is the mixing weight on the tangency fund
    (equal to the portfolio's beta) and ``lam = -mu * R``; the stationarity
    multipliers differ from these by the cost of the raw tangency direction.
    """

    portfolio: np.ndarray
    lam: float
    mu: float
    target_mean: float
    variance: float
    mode: str


def find_riskless(market: Market) -> RisklessInfo | None:
    """Locate the riskless portfolio, or report that none exists.

    The zero-variance directions of the payoff covariance are the portfolios
    whose payoff is the same in every outcome. A combination of them that
    pays one unit in every outcome (within a residual of
    ``RISKLESS_RESIDUAL_TOL * sqrt(n_outcomes)``) is the riskless portfolio,
    normalized to unit cost. Raises ArbitragePresentError when two riskless
    portfolios with different returns coexist (equivalently, a zero-payoff
    combination carries cost) or the constant payoff costs nothing or less.
    """
    return _find_riskless(market, moments(market))


def _nullity(mm: Moments) -> int:
    """Number of covariance eigenvalues at or below the rank cutoff.

    The eigenvalues ascend, so these are the leading ones, and their
    eigenvectors span the zero-variance directions.
    """
    eigs = mm.eigenvalues
    return int(np.count_nonzero(eigs <= DEFAULT_PINV_RTOL * eigs[-1]))


def _find_riskless(market: Market, mm: Moments) -> RisklessInfo | None:
    x = market.prices
    nullity = _nullity(mm)
    null = mm.eigenvectors[:, :nullity]
    # Each zero-variance direction pays its mean payoff as a constant.
    constants = mm.mean @ null
    scale = float(constants @ constants)
    if scale == 0.0:
        return None
    base = null @ (constants / scale)
    residual = float(np.linalg.norm(base @ market.payoffs - 1.0))
    if not residual <= RISKLESS_RESIDUAL_TOL * np.sqrt(market.n_outcomes):
        return None

    # The zero-variance directions orthogonal to ``constants`` pay zero, so
    # they must cost nothing.
    null_costs = x @ null
    leak = float(np.linalg.norm(null_costs - constants * ((null_costs @ constants) / scale)))
    if not leak <= _NULL_COST_RTOL * max(1.0, float(np.linalg.norm(x))):
        raise ArbitragePresentError(
            "two riskless portfolios with different returns exist: a zero-payoff "
            f"combination of instruments carries cost (magnitude {leak!r})")

    cost = float(base @ x)
    cost_floor = ZERO_COST_RTOL * max(1.0, float(np.linalg.norm(base) * np.linalg.norm(x)))
    if not cost > cost_floor:
        raise ArbitragePresentError(
            f"a constant unit payoff is available at nonpositive cost ({cost!r})")
    zeta = base / cost
    gross_return = 1.0 / cost

    # Tangency direction V+ (E[X] - R x), V+ taken over the eigenpairs above the cutoff.
    excess = mm.mean - gross_return * x
    vecs = mm.eigenvectors[:, nullity:]
    raw = vecs @ ((excess @ vecs) / mm.eigenvalues[nullity:])
    tangency = None
    raw_cost = float(raw @ x)
    if abs(raw_cost) > ZERO_COST_RTOL * max(
            1.0, float(np.linalg.norm(raw) * np.linalg.norm(x))):
        tangency = raw / raw_cost
    return RisklessInfo(portfolio=zeta, gross_return=gross_return, tangency=tangency)


def frontier_constants(market: Market) -> FrontierConstants:
    """The four scalars driving the closed-form frontier; requires invertible covariance."""
    return _constants(market, moments(market))[0]


def _constants(market: Market, mm: Moments):
    if _nullity(mm):
        raise SingularCovarianceError(
            "payoff covariance is singular; use the riskless route instead")
    # Whiten the price/mean pair with L^-1/2 Q', where V = Q L Q' is the stored
    # eigendecomposition, and take its QR factor. The quadratic forms
    # become plain products of the triangular entries, which sidesteps the
    # catastrophic cancellation of forming a*c - b*b directly (the determinant
    # can be many orders of magnitude below a*c).
    half = mm.eigenvectors / np.sqrt(mm.eigenvalues)
    whitened = half.T @ np.column_stack([market.prices, mm.mean])
    r = np.linalg.qr(whitened, mode="r")
    r11 = float(r[0, 0])
    r12 = float(r[0, 1])
    r22 = float(r[1, 1]) if r.shape[0] > 1 else 0.0
    a = r11 * r11
    b = r11 * r12
    c = r12 * r12 + r22 * r22
    d = a * (r22 * r22)
    inverse = half @ whitened  # columns V^-1 x and V^-1 E[X]
    constants = FrontierConstants(a=a, b=b, c=c, d=d)
    return constants, inverse[:, 0], inverse[:, 1], (r11, r12, r22)


def efficient_portfolio(market: Market, target_mean: float) -> FrontierSolution:
    """Minimum-variance unit-cost portfolio with the given expected realized return."""
    rho = float(target_mean)
    if not np.isfinite(rho):
        raise ValidationError(f"target expected return must be finite, got {rho!r}")
    return _efficient(market, moments(market), rho)


def _efficient(market: Market, mm: Moments, rho: float) -> FrontierSolution:
    if _nullity(mm):
        return _riskless_route(market, mm, rho)
    constants, sol_price, sol_mean, triangle = _constants(market, mm)

    a, b, c, d = constants.a, constants.b, constants.c, constants.d
    if not abs(d) > _DEGENERATE_D_RTOL * max(abs(a * c), b * b, 1.0):
        raise DegenerateProblemError(
            "prices and expected payoffs are collinear under the covariance metric; "
            "only one expected return is attainable")
    # lam = (c - rho b)/d, mu = (rho a - b)/d and the frontier variance
    # (c - 2 b rho + a rho^2)/d, written in the cancellation-free triangular
    # form: the variance numerator is the sum of squares (r12 - rho r11)^2 + r22^2.
    r11, r12, r22 = triangle
    gap = r12 - rho * r11
    lam = (r12 * gap + r22 * r22) / d
    mu = -(r11 * gap) / d
    xi = lam * sol_price + mu * sol_mean
    variance = (gap * gap + r22 * r22) / d
    solution = FrontierSolution(portfolio=xi, lam=lam, mu=mu,
                                target_mean=rho, variance=variance,
                                mode=MODE_NONSINGULAR)
    _check_solution(market, mm, solution)
    return solution


def _riskless_route(market: Market, mm: Moments, rho: float) -> FrontierSolution:
    info = _find_riskless(market, mm)
    if info is None:
        raise UnsupportedMarketError(
            "covariance is singular and no riskless portfolio exists; "
            "this market is outside the supported regimes")
    r = info.gross_return
    if abs(rho - r) <= _TARGET_MATCH_RTOL * max(1.0, abs(r)):
        xi = np.array(info.portfolio)
        mu = 0.0
        variance = 0.0
    else:
        if info.tangency is None:
            raise DegenerateProblemError(
                "the tangency fund is degenerate (expected payoffs are the riskless-"
                f"scaled prices); no target mean other than {r!r} is attainable")
        tangency_profile = realized_return(market, info.tangency)
        spread = tangency_profile.mean - r
        if abs(spread) <= 1e-12 * max(1.0, abs(r), abs(tangency_profile.mean)):
            raise DegenerateProblemError(
                "tangency fund and riskless portfolio have the same expected return; "
                f"no target mean other than {r!r} is attainable")
        mu = (rho - r) / spread
        xi = mu * info.tangency + (1.0 - mu) * info.portfolio
        variance = mu * mu * tangency_profile.variance
    solution = FrontierSolution(portfolio=xi, lam=-mu * r, mu=mu,
                                target_mean=rho, variance=variance,
                                mode=MODE_RISKLESS)
    _check_solution(market, mm, solution)
    return solution


def _check_solution(market: Market, mm: Moments, solution: FrontierSolution) -> None:
    cost = float(solution.portfolio @ market.prices)
    if not abs(cost - 1.0) <= _COST_CHECK_TOL:
        raise UnsupportedMarketError(
            f"efficient portfolio failed its unit-cost check (cost {cost!r}); "
            "the market is too ill-conditioned")
    mean = float(solution.portfolio @ mm.mean) / cost
    bound = _MEAN_CHECK_TOL * max(1.0, abs(solution.target_mean))
    if not abs(mean - solution.target_mean) <= bound:
        raise UnsupportedMarketError(
            f"efficient portfolio failed its target-mean check ({mean!r} vs "
            f"{solution.target_mean!r}); the market is too ill-conditioned")


def two_fund_compose(market: Market, fund0: FrontierSolution, fund1: FrontierSolution,
                     target_mean: float) -> tuple[float, np.ndarray]:
    """Reach ``target_mean`` as an affine mix of two efficient funds.

    Returns ``(beta, portfolio)`` with ``portfolio = (1 - beta) * fund0 + beta * fund1``.
    """
    rho0 = fund0.target_mean
    rho1 = fund1.target_mean
    if abs(rho1 - rho0) <= 1e-12 * max(1.0, abs(rho0), abs(rho1)):
        raise DegenerateProblemError(
            f"funds have identical target means ({rho0!r}); composition is underdetermined")
    beta = (float(target_mean) - rho0) / (rho1 - rho0)
    xi = (1.0 - beta) * fund0.portfolio + beta * fund1.portfolio
    return beta, xi

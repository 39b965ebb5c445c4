"""Efficient portfolio construction.

Minimum-variance portfolios for a prescribed expected realized return. Two
funds span every efficient portfolio, so a market's frontier is built once,
from one factorization, and each target costs O(n). The model supports two
regimes:

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

from .errors import (ArbitragePresentError, DegenerateProblemError, UnsupportedMarketError,
                     ValidationError)
from .market import (EQUALITY_TOL, MEAN_TOL, RANK_RTOL, ROUNDING_RTOL, Market, Moments,
                     _scaled, moments)

MODE_NONSINGULAR = "nonsingular"
MODE_RISKLESS = "riskless_route"


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
    ``EQUALITY_TOL * sqrt(n_outcomes)``) is the riskless portfolio,
    normalized to unit cost. Raises ArbitragePresentError when two riskless
    portfolios with different returns coexist (equivalently, a zero-payoff
    combination carries cost) or the constant payoff costs nothing or less.
    """
    return _find_riskless(market, moments(market))


def _nullity(mm: Moments) -> int:
    """Number of covariance eigenvalues at or below ``RANK_RTOL * lambda_max``.

    The eigenvalues ascend, so these are the leading ones, and their
    eigenvectors span the zero-variance directions.
    """
    eigs = mm.eigenvalues
    return int(np.count_nonzero(eigs <= RANK_RTOL * eigs[-1]))


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
    if not residual <= EQUALITY_TOL * np.sqrt(market.n_outcomes):
        return None

    # The zero-variance directions orthogonal to ``constants`` pay zero, so
    # they must cost nothing.
    null_costs = x @ null
    leak = float(np.linalg.norm(null_costs - constants * ((null_costs @ constants) / scale)))
    if not leak <= _scaled(EQUALITY_TOL, float(np.linalg.norm(x))):
        raise ArbitragePresentError(
            "two riskless portfolios with different returns exist: a zero-payoff "
            f"combination of instruments carries cost (magnitude {leak!r})")

    cost = float(base @ x)
    if not cost > _scaled(ROUNDING_RTOL, float(np.linalg.norm(base) * np.linalg.norm(x))):
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
    if abs(raw_cost) > _scaled(ROUNDING_RTOL, float(np.linalg.norm(raw) * np.linalg.norm(x))):
        tangency = raw / raw_cost
    return RisklessInfo(portfolio=zeta, gross_return=gross_return, tangency=tangency)


@dataclass(frozen=True)
class _Frontier:
    """Every efficient portfolio of one market, built from one factorization.

    Two funds span the frontier: the portfolio at target ``rho`` is
    ``base + s * direction`` with ``s = rho - rho0``. ``base`` is the
    efficient portfolio at ``rho0`` (the minimum-variance portfolio, or the
    riskless one), and ``direction`` costs nothing and adds one to the mean.
    The reported multipliers are ``lam = lam0 + s * lam1`` and
    ``mu = s * mu1``, and the variance is ``var0 + s^2 * var1``.
    ``direction`` is None when ``rho0`` is the only attainable mean.
    ``prices`` and ``mean`` (the market's ``E[X]``) are the two constraints'
    coefficients, so a frontier keeps no reference to its market.
    """

    prices: np.ndarray
    mean: np.ndarray
    mode: str
    rho0: float
    base: np.ndarray
    direction: np.ndarray | None = None
    lam0: float = 0.0
    lam1: float = 0.0
    mu1: float = 0.0
    var0: float = 0.0
    var1: float = 0.0

    def at(self, rho: float) -> FrontierSolution:
        """The efficient portfolio at ``rho``, in O(n) work."""
        s = rho - self.rho0
        xi, w_base, w_dir = self.base, 1.0, 0.0
        if abs(s) <= _scaled(ROUNDING_RTOL, abs(self.rho0)):
            s = 0.0
        elif self.direction is None:
            raise DegenerateProblemError(
                "the tangency fund is degenerate or earns the riskless return; "
                f"no target mean other than {self.rho0!r} is attainable")
        else:
            # One step of iterative refinement on x'xi = 1 and E[X]'xi = rho.
            # The funds satisfy x'base = 1, x'direction = 0, E[X]'base = rho0 and
            # E[X]'direction = 1, so the correction needs no solve.
            xi = self.base + s * self.direction
            cost_gap = 1.0 - float(xi @ self.prices)
            mean_gap = rho - float(xi @ self.mean)
            w_base, w_dir = 1.0 + cost_gap, s + mean_gap - self.rho0 * cost_gap
            xi = w_base * self.base + w_dir * self.direction
        cost = float(xi @ self.prices)
        if not abs(cost - 1.0) <= EQUALITY_TOL:
            raise UnsupportedMarketError(
                f"efficient portfolio failed its unit-cost check (cost {cost!r}); "
                "the market is too ill-conditioned")
        mean = float(xi @ self.mean) / cost
        if not abs(mean - rho) <= _scaled(MEAN_TOL, abs(rho)):
            raise UnsupportedMarketError(
                f"efficient portfolio failed its target-mean check ({mean!r} vs "
                f"{rho!r}); the market is too ill-conditioned")
        return FrontierSolution(portfolio=xi, lam=w_base * self.lam0 + w_dir * self.lam1,
                                mu=w_dir * self.mu1, target_mean=rho,
                                variance=self.var0 + s * s * self.var1, mode=self.mode)


def _frontier(market: Market) -> _Frontier:
    """Build the frontier of ``market`` once, from its moments."""
    mm = moments(market)
    if _nullity(mm):
        info = _find_riskless(market, mm)
        if info is None:
            raise UnsupportedMarketError(
                "covariance is singular and no riskless portfolio exists; "
                "this market is outside the supported regimes")
        r = info.gross_return
        t = info.tangency
        spread = 0.0 if t is None else float(mm.mean @ t) - r
        if not abs(spread) > _scaled(ROUNDING_RTOL, abs(r), abs(r + spread)):
            return _Frontier(market.prices, mm.mean, MODE_RISKLESS, r, info.portfolio)
        # mu is the weight on the tangency fund, so the fund itself sits at s = spread.
        return _Frontier(market.prices, mm.mean, MODE_RISKLESS, r, info.portfolio,
                         direction=(t - info.portfolio) / spread, lam1=-r / spread,
                         mu1=1.0 / spread, var1=float(t @ mm.covariance @ t) / spread**2)
    # Whiten the price/mean pair with L^-1/2 Q', where V = Q L Q' is the stored
    # eigendecomposition, and take its QR factor R = [[r11, r12], [0, r22]]. With
    # a = x'V^-1 x, b = x'V^-1 E[X], c = E[X]'V^-1 E[X] and d = a c - b^2, the
    # frontier reads a = r11^2, b = r11 r12 and d = a r22^2, which sidesteps the
    # catastrophic cancellation of forming a*c - b*b directly.
    half = mm.eigenvectors / np.sqrt(mm.eigenvalues)
    whitened = half.T @ np.column_stack([market.prices, mm.mean])
    r = np.linalg.qr(whitened, mode="r")
    r11, r12 = float(r[0, 0]), float(r[0, 1])
    r22 = float(r[1, 1]) if r.shape[0] > 1 else 0.0
    a, b, c = r11 * r11, r11 * r12, r12 * r12 + r22 * r22
    if not abs(a * r22 * r22) > _scaled(ROUNDING_RTOL, a * c, b * b):
        raise DegenerateProblemError(
            "prices and expected payoffs are collinear under the covariance metric; "
            "only one expected return is attainable")
    # Along the frontier lam = (c - rho b)/d and mu = (rho a - b)/d multiply
    # V^-1 x and V^-1 E[X]; the base is the minimum-variance portfolio at b/a.
    inv_price, inv_mean = (half @ whitened).T
    rho0, slope = r12 / r11, 1.0 / (r22 * r22)
    return _Frontier(market.prices, mm.mean, MODE_NONSINGULAR, rho0, inv_price / a,
                     direction=(inv_mean - rho0 * inv_price) * slope,
                     lam0=1.0 / a, lam1=-rho0 * slope, mu1=slope,
                     var0=1.0 / a, var1=slope)


def efficient_portfolio(market: Market, target_mean: float) -> FrontierSolution:
    """Minimum-variance unit-cost portfolio with the given expected realized return."""
    rho = float(target_mean)
    if not np.isfinite(rho):
        raise ValidationError(f"target expected return must be finite, got {rho!r}")
    return _frontier(market).at(rho)


def two_fund_compose(market: Market, fund0: FrontierSolution, fund1: FrontierSolution,
                     target_mean: float) -> tuple[float, np.ndarray]:
    """Reach ``target_mean`` as an affine mix of two efficient funds.

    Returns ``(beta, portfolio)`` with ``portfolio = (1 - beta) * fund0 + beta * fund1``.
    """
    rho0 = fund0.target_mean
    rho1 = fund1.target_mean
    if abs(rho1 - rho0) <= _scaled(ROUNDING_RTOL, abs(rho0), abs(rho1)):
        raise DegenerateProblemError(
            f"funds have identical target means ({rho0!r}); composition is underdetermined")
    beta = (float(target_mean) - rho0) / (rho1 - rho0)
    xi = (1.0 - beta) * fund0.portfolio + beta * fund1.portfolio
    return beta, xi

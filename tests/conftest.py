"""Shared fixtures, seeded market generators and brute-force oracles.

The oracles recompute expected values with deliberately naive arithmetic
(explicit outcome loops, 2x2 adjugate inversion, dense grid scans) so the
tests never reuse the code paths they are checking.
"""

import numpy as np
import pytest

from oneperiod.market import Market


def market_m1() -> Market:
    """Two instruments, two outcomes; one instrument riskless."""
    return Market(instruments=("bond", "stock"), prices=(1.0, 1.0),
                  payoffs=[[1.1, 1.1], [1.3, 0.9]], probabilities=(0.6, 0.4),
                  outcome_labels=("up", "down"))


def market_m2() -> Market:
    """Identical payoffs at different prices: a dominated asset."""
    return Market(instruments=("a", "b"), prices=(1.0, 1.05),
                  payoffs=[[1.0, 0.9], [1.0, 0.9]], probabilities=(0.5, 0.5))


def market_m3() -> Market:
    """Two instruments, three equiprobable outcomes; invertible covariance."""
    third = 1.0 / 3.0
    return Market(instruments=("s1", "s2"), prices=(1.0, 1.0),
                  payoffs=[[1.0, 1.1, 1.2], [1.4, 1.1, 0.9]],
                  probabilities=(third, third, third))


@pytest.fixture
def m1() -> Market:
    return market_m1()


@pytest.fixture
def m2() -> Market:
    return market_m2()


@pytest.fixture
def m3() -> Market:
    return market_m3()


# -- brute-force oracles -------------------------------------------------------

def brute_moments(market: Market):
    """Mean/second moment/covariance by explicit summation over outcomes."""
    n, k = market.payoffs.shape
    mean = np.zeros(n)
    second = np.zeros((n, n))
    for w in range(k):
        col = market.payoffs[:, w]
        pw = market.probabilities[w]
        mean = mean + pw * col
        second = second + pw * np.outer(col, col)
    return mean, second, second - np.outer(mean, mean)


def gmv_mean(market: Market) -> float:
    """Expected payoff per unit cost of the minimum-variance portfolio: b/a, where
    a = x'V^-1 x and b = x'V^-1 E[X] come from the brute-force moments."""
    mean, _, cov = brute_moments(market)
    weights = np.linalg.solve(cov, market.prices)
    return float(mean @ weights) / float(market.prices @ weights)


def invert_2x2(matrix):
    """Adjugate inversion of a 2x2 matrix; independent of numpy.linalg."""
    (a, b), (c, d) = matrix
    det = a * d - b * c
    assert det != 0.0
    return np.array([[d, -b], [-c, a]]) / det


def line_search_min_variance(market: Market, rho: float, step: float, span: float = 2.0):
    """Grid oracle for two-instrument markets.

    Scans the unit-cost line on an absolute grid of spacing ``step``, keeps
    portfolios whose expected return lies within half a mean-step of ``rho``,
    and returns (min variance, best portfolio) among them.
    """
    x = market.prices
    assert x.size == 2
    base = x / (x @ x)
    direction = np.array([x[1], -x[0]])
    direction = direction / np.linalg.norm(direction)
    mean_vec, _, _ = brute_moments(market)
    slope = float(direction @ mean_vec)
    assert abs(slope) > 1e-9, "prices and mean payoffs are collinear"
    center = (rho - float(base @ mean_vec)) / slope
    j_lo = int(np.floor((center - span) / step))
    j_hi = int(np.ceil((center + span) / step))
    ts = np.arange(j_lo, j_hi + 1) * step
    grid = base[None, :] + ts[:, None] * direction[None, :]
    payoff = grid @ market.payoffs
    means = payoff @ market.probabilities
    window = abs(slope) * step / 2.0 + 1e-15
    feasible = np.abs(means - rho) <= window
    assert feasible.any()
    centered = payoff - means[:, None]
    variances = (centered * centered) @ market.probabilities
    masked = np.where(feasible, variances, np.inf)
    best = int(np.argmin(masked))
    return float(variances[best]), grid[best]


def nnls_grid_oracle(generators, target, upper: float = 3.0, step: float = 1e-2) -> float:
    """Exhaustive grid search of ||G c - target|| over c in [0, upper]^k."""
    g = np.asarray(generators, dtype=float)
    b = np.asarray(target, dtype=float)
    k = g.shape[1]
    assert k <= 3
    axis = np.arange(0.0, upper + step / 2.0, step)
    best = np.inf
    if k == 1:
        residuals = g @ axis[None, :] - b[:, None]
        return float(np.sqrt((residuals * residuals).sum(axis=0)).min())
    for first in axis:
        if k == 2:
            rest = axis[None, :]
            points = np.vstack([np.full(rest.shape[1], first), rest[0]])
        else:
            aa, bb = np.meshgrid(axis, axis, indexing="ij")
            points = np.vstack([np.full(aa.size, first), aa.ravel(), bb.ravel()])
        residuals = g @ points - b[:, None]
        best = min(best, float(np.sqrt((residuals * residuals).sum(axis=0)).min()))
    return best


# -- seeded market generators --------------------------------------------------

def random_probabilities(rng, k: int) -> np.ndarray:
    p = rng.uniform(0.2, 1.0, size=k)
    return p / p.sum()


def random_planted_market(rng, n: int | None = None, k: int | None = None) -> Market:
    """Market whose prices are a strictly positive combination of payoff columns."""
    if n is None:
        n = int(rng.integers(2, 7))
    if k is None:
        k = int(rng.integers(n + 1, 13))
    payoffs = rng.uniform(0.5, 1.5, size=(n, k))
    planted = rng.uniform(0.1, 1.0, size=k)
    prices = payoffs @ planted
    return Market(instruments=tuple(f"a{i}" for i in range(n)), prices=prices,
                  payoffs=payoffs, probabilities=random_probabilities(rng, k))


def random_invertible_market(rng, n_max: int = 6, k_max: int = 12) -> Market:
    """Planted-measure market with a numerically invertible covariance."""
    from oneperiod.market import moments

    while True:
        n = int(rng.integers(2, n_max + 1))
        k = int(rng.integers(n + 1, k_max + 1))
        market = random_planted_market(rng, n=n, k=k)
        cov = moments(market).covariance
        eigs = np.linalg.eigvalsh(cov)
        if eigs[0] <= 1e-6 * eigs[-1]:
            continue
        mean, _, _ = brute_moments(market)
        inv = np.linalg.inv(cov)
        a = market.prices @ inv @ market.prices
        b = market.prices @ inv @ mean
        c = mean @ inv @ mean
        if a * c - b * b >= 1e-8 * max(a * c, 1.0):
            return market


def random_riskless_market(rng, n_max: int = 5, k_max: int = 10) -> Market:
    """Planted-measure market whose first instrument pays a constant."""
    while True:
        n = int(rng.integers(2, n_max + 1))
        k = int(rng.integers(n + 1, k_max + 1))
        payoffs = rng.uniform(0.5, 1.5, size=(n, k))
        payoffs[0, :] = rng.uniform(1.0, 1.3)
        if np.linalg.matrix_rank(payoffs) < n:
            continue
        planted = rng.uniform(0.1, 1.0, size=k)
        prices = payoffs @ planted
        market = Market(instruments=tuple(f"a{i}" for i in range(n)), prices=prices,
                        payoffs=payoffs, probabilities=random_probabilities(rng, k))
        # tangency fund must be non-degenerate for the riskless-route tests
        mean, _, _ = brute_moments(market)
        gross = 1.0 / planted.sum()
        if np.linalg.norm(mean - gross * prices) <= 1e-6:
            continue
        return market


def bond_market(rng, face: float, n_stocks: int = 2, k: int = 50) -> Market:
    """A bond paying ``face`` in every outcome, priced to return 1.05, and
    stocks paying U(0.5, 1.5) priced 0.95, 0.97, ..., under Dirichlet(1)
    probabilities."""
    payoffs = np.vstack([np.full(k, face), rng.uniform(0.5, 1.5, size=(n_stocks, k))])
    prices = np.concatenate(([face / 1.05], 0.95 + 0.02 * np.arange(n_stocks)))
    return Market(instruments=tuple(f"a{i}" for i in range(n_stocks + 1)), prices=prices,
                  payoffs=payoffs, probabilities=rng.dirichlet(np.ones(k)))


def random_dominated_market(rng) -> Market:
    """Planted market plus a cloned payoff row at a price raised by >= 1%."""
    base = random_planted_market(rng, n=int(rng.integers(2, 6)))
    i = int(rng.integers(0, base.n_instruments))
    markup = 1.0 + rng.uniform(0.01, 0.10)
    payoffs = np.vstack([base.payoffs, base.payoffs[i]])
    prices = np.append(base.prices, markup * base.prices[i])
    names = tuple(f"a{j}" for j in range(base.n_instruments)) + ("clone",)
    return Market(instruments=names, prices=prices, payoffs=payoffs,
                  probabilities=base.probabilities)


def nnls_textbook(generators, target):
    """Lawson-Hanson NNLS as in the textbook: a fresh ``lstsq`` per inner step.

    Same entering rule, drop rule and default KKT tolerance as
    ``oneperiod.linalg.nnls``, but every step works on length-k vectors and
    re-solves the passive least-squares problem from scratch. The dual is
    summed column by column in one order, so duplicate generators tie
    exactly and the lowest index enters. Returns the coefficients and the
    number of inner (drop) steps taken.
    """
    g = np.asarray(generators, dtype=float)
    b = np.asarray(target, dtype=float)
    k = g.shape[1]
    dual = (g * b[:, None]).sum(axis=0)
    kkt_tol = 1e-10 * float(np.abs(dual).max())
    coeff = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    drops = 0
    for _ in range(10 * k):
        candidates = np.flatnonzero(~passive & (dual > kkt_tol))
        if candidates.size == 0:
            return coeff, drops
        passive[int(candidates[np.argmax(dual[candidates])])] = True
        while True:
            idx = np.flatnonzero(passive)
            trial = np.zeros(k)
            trial[idx] = np.linalg.lstsq(g[:, idx], b, rcond=None)[0]
            if trial[idx].min() > 0.0:
                coeff = trial
                break
            drops += 1
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
        dual = (g * (b - g @ coeff)[:, None]).sum(axis=0)
    raise AssertionError("textbook nnls hit its iteration cap")

import numpy as np
import pytest

from conftest import random_invertible_market, random_riskless_market
from oneperiod import capm
from oneperiod.capm import verify_realized_identity
from oneperiod.errors import DegenerateProblemError
from oneperiod.frontier import efficient_portfolio, find_riskless, frontier_constants
from oneperiod.market import portfolio_cost, realized_return


def unit_cost(market, portfolio):
    xi = np.asarray(portfolio, dtype=float)
    return xi / portfolio_cost(market, xi)


def test_beta_of_fund1_is_one(m1):
    b = verify_realized_identity(m1, (0.0, 1.0), (1.0, 0.0), (0.0, 1.0)).beta
    assert b == pytest.approx(1.0, rel=1e-12)


def test_beta_of_fund0_is_zero(m1):
    b = verify_realized_identity(m1, (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)).beta
    assert b == pytest.approx(0.0, abs=1e-12)


def test_beta_m1_hand_value(m1):
    b = verify_realized_identity(m1, (0.5, 0.5), (1.0, 0.0), (0.0, 1.0)).beta
    assert b == pytest.approx(0.5, rel=1e-12)
    assert b == pytest.approx(efficient_portfolio(m1, 1.12).mu, rel=1e-10)


def test_beta_rejects_identical_funds(m1):
    with pytest.raises(DegenerateProblemError, match="identical"):
        verify_realized_identity(m1, (0.5, 0.5), (0.0, 1.0), (0.0, 2.0))


def test_identity_m1_hand_case(m1):
    report = verify_realized_identity(m1, (0.5, 0.5), (1.0, 0.0), (0.0, 1.0))
    assert report.beta == pytest.approx(0.5, rel=1e-12)
    np.testing.assert_allclose(report.residual_per_outcome, [0.0, 0.0], atol=1e-13)
    assert report.max_abs_residual <= 1e-13
    assert report.expectation_gap <= 1e-13


def test_identity_trivial_when_candidate_is_fund1(m1):
    report = verify_realized_identity(m1, (0.0, 2.0), (1.0, 0.0), (0.0, 1.0))
    assert report.beta == pytest.approx(1.0, rel=1e-12)
    assert report.max_abs_residual <= 1e-12


def test_identity_m3_efficient_triple(m3):
    xi = efficient_portfolio(m3, 1.12).portfolio
    xi0 = efficient_portfolio(m3, 1.05).portfolio
    xi1 = efficient_portfolio(m3, 1.20).portfolio
    report = verify_realized_identity(m3, xi, xi0, xi1)
    scale = max(1.0, float(np.abs(realized_return(m3, xi).per_outcome).max()))
    assert report.max_abs_residual <= 1e-8 * scale


def test_identity_expectation_gap_bound(m3):
    rng = np.random.default_rng(1212)
    xi0 = efficient_portfolio(m3, 1.05).portfolio
    xi1 = efficient_portfolio(m3, 1.20).portfolio
    for _ in range(20):
        xi = rng.normal(size=2)
        if abs(float(xi @ m3.prices)) < 1e-3:
            continue
        report = verify_realized_identity(m3, xi, xi0, xi1)
        weighted = float(m3.probabilities @ np.abs(report.residual_per_outcome))
        assert report.expectation_gap <= weighted + 1e-12


def test_beta_fails_closed_on_nan_profile():
    p = np.array([0.5, 0.5])
    with pytest.raises(DegenerateProblemError):
        capm._beta(p, np.array([0.1, -0.1]), np.array([np.nan, 0.2]))


def test_pointwise_identity_implies_expectation_form():
    rng = np.random.default_rng(1313)
    for _ in range(20):
        market = random_riskless_market(rng)
        info = find_riskless(market)
        xi = rng.normal(size=market.n_instruments)
        if abs(float(xi @ market.prices)) < 1e-2:
            continue
        report = verify_realized_identity(market, xi, info.portfolio, info.tangency)
        # with a riskless fund0 the general beta reduces to the classical
        # Cov(R, R1) / Var(R1), and the expectation form to
        # E[R] - R0 = beta (E[R1] - R0)
        p = market.probabilities
        r = realized_return(market, xi)
        r1 = realized_return(market, info.tangency)
        cov = float(p @ ((r.per_outcome - r.mean) * (r1.per_outcome - r1.mean)))
        assert report.beta == pytest.approx(cov / r1.variance, rel=1e-9, abs=1e-12)
        r0 = info.gross_return
        lhs, rhs = r.mean - r0, report.beta * (r1.mean - r0)
        assert report.expectation_gap == pytest.approx(abs(lhs - rhs), abs=1e-12)
        weighted = float(p @ np.abs(report.residual_per_outcome))
        assert report.expectation_gap <= weighted + 1e-12


def test_beta_invariant_under_fund_rescaling(m3):
    xi = efficient_portfolio(m3, 1.12).portfolio
    xi0 = efficient_portfolio(m3, 1.05).portfolio
    xi1 = efficient_portfolio(m3, 1.20).portfolio
    rescaled = unit_cost(m3, 2.0 * xi1)
    a = verify_realized_identity(m3, xi, xi0, xi1)
    b = verify_realized_identity(m3, xi, xi0, rescaled)
    assert b.beta == pytest.approx(a.beta, rel=1e-12)
    np.testing.assert_allclose(a.residual_per_outcome, b.residual_per_outcome,
                               atol=1e-12)


def test_identity_characterizes_efficient_span():
    rng = np.random.default_rng(1414)
    efficient_hits = 0
    random_misses = 0
    draws = 200
    for _ in range(draws):
        market = random_invertible_market(rng)
        while market.n_instruments < 3:
            market = random_invertible_market(rng)
        constants = frontier_constants(market)
        gmv_mean = constants.b / constants.a
        xi = efficient_portfolio(market, gmv_mean + 0.03).portfolio
        xi0 = efficient_portfolio(market, gmv_mean + 0.01).portfolio
        xi1 = efficient_portfolio(market, gmv_mean + 0.06).portfolio
        scale = max(1.0, float(np.abs(realized_return(market, xi).per_outcome).max()))
        if verify_realized_identity(market, xi, xi0, xi1).max_abs_residual <= 1e-8 * scale:
            efficient_hits += 1
        raw = rng.normal(size=market.n_instruments)
        if abs(float(raw @ market.prices)) < 1e-2:
            random_misses += 1  # cannot normalize; count as a miss conservatively
            continue
        random_xi = unit_cost(market, raw)
        if verify_realized_identity(market, random_xi, xi0, xi1).max_abs_residual > 1e-4:
            random_misses += 1
    assert efficient_hits == draws
    assert random_misses >= int(0.95 * draws)

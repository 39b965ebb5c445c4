import dataclasses

import numpy as np
import pytest

from conftest import random_dominated_market, random_planted_market
from oneperiod.arbitrage import (ArbitrageCertificate, PricingMeasure, check_arbitrage,
                                 risk_neutral_consistency, verify_certificate)
from oneperiod.errors import DegenerateProblemError
from oneperiod.market import Market


def ray_market(offset: float) -> Market:
    """Both payoff columns on one ray; prices sit `offset` away from the cone."""
    on_ray = 1.025 * np.array([1.0, 1.0])
    orthogonal = np.array([1.0, -1.0]) / np.sqrt(2.0)
    return Market(instruments=("a", "b"), prices=on_ray + offset * orthogonal,
                  payoffs=[[1.0, 0.9], [1.0, 0.9]], probabilities=(0.5, 0.5))


def test_check_arbitrage_m1_measure(m1):
    measure = check_arbitrage(m1)
    assert isinstance(measure, PricingMeasure)
    np.testing.assert_allclose(measure.state_prices, [5.0 / 11.0, 5.0 / 11.0],
                               rtol=1e-12)
    assert measure.mass == pytest.approx(10.0 / 11.0, rel=1e-12)
    assert measure.implied_return == pytest.approx(1.1, rel=1e-12)
    np.testing.assert_allclose(measure.risk_neutral, [0.5, 0.5], rtol=1e-12)
    assert measure.strictly_positive
    assert not measure.near_boundary
    # independent oracle: the 2x2 linear system has a unique solution
    oracle = np.linalg.solve(np.array(m1.payoffs), np.array(m1.prices))
    np.testing.assert_allclose(measure.state_prices, oracle, rtol=1e-12)


def test_check_arbitrage_m2_certificate(m2):
    certificate = check_arbitrage(m2)
    assert isinstance(certificate, ArbitrageCertificate)
    assert certificate.cost < 0.0
    payoff_floor = 1e-9 * max(1.0, float(np.abs(m2.payoffs).max()))
    assert certificate.worst_payoff >= -payoff_floor
    # the dominated-asset direction: long the cheap instrument, short the dear one
    assert certificate.portfolio[0] > 0.0 > certificate.portfolio[1]
    assert abs(certificate.portfolio[0] + certificate.portfolio[1]) <= 1e-12


def test_verify_passes_for_both_outcomes(m1, m2):
    assert verify_certificate(m1, check_arbitrage(m1)).passed
    assert verify_certificate(m2, check_arbitrage(m2)).passed


def test_verify_hand_built_certificate(m2):
    certificate = ArbitrageCertificate(portfolio=np.array([1.0, -1.0]),
                                       cost=-0.05, worst_payoff=0.0)
    report = verify_certificate(m2, certificate)
    assert report.passed
    cost_check = next(c for c in report.checks if "cost" in c.name)
    assert cost_check.slack == pytest.approx(0.05, rel=1e-12)


def test_verify_flags_tampered_measure(m1):
    measure = check_arbitrage(m1)
    tampered = dataclasses.replace(
        measure, state_prices=measure.state_prices * np.array([1.0, -1.0]))
    report = verify_certificate(m1, tampered)
    assert not report.passed
    failed = [c.name for c in report.checks if not c.passed]
    assert "state prices are nonnegative" in failed


def test_risk_neutral_consistency_m1(m1):
    measure = check_arbitrage(m1)
    report = risk_neutral_consistency(m1, measure)
    assert report.passed
    expected = [float(m1.payoffs[i] @ measure.risk_neutral) for i in range(2)]
    np.testing.assert_allclose(expected, [1.1, 1.1], rtol=1e-12)


def test_risk_neutral_consistency_gaps_are_per_instrument_products(m1):
    rng = np.random.default_rng(1616)
    eps = np.finfo(float).eps
    for market in [m1] + [random_planted_market(rng) for _ in range(30)]:
        measure = check_arbitrage(market)
        q, r, x = measure.risk_neutral, measure.implied_return, market.prices
        report = risk_neutral_consistency(market, measure)
        bound = 1e-9 * max(1.0, float(np.linalg.norm(x))) * max(1.0, abs(r))
        assert len(report.checks) == market.n_instruments
        for i, check in enumerate(report.checks):
            gap = abs(float(market.payoffs[i] @ q) - r * x[i])
            rounding = 2 * market.n_outcomes * eps * (float(np.abs(market.payoffs[i]) @ q)
                                                      + abs(r * x[i]))
            assert abs((bound - check.slack) - gap) <= rounding
            assert check.passed and market.instruments[i] in check.name


def test_single_riskless_asset_market():
    market = Market(instruments=("only",), prices=(1.0,), payoffs=[[1.1, 1.1]],
                    probabilities=(0.3, 0.7))
    measure = check_arbitrage(market)
    assert isinstance(measure, PricingMeasure)
    assert measure.implied_return == pytest.approx(1.1, rel=1e-12)
    assert risk_neutral_consistency(market, measure).passed
    assert not measure.strictly_positive  # one outcome carries zero weight


def test_planted_measures_are_recovered():
    rng = np.random.default_rng(1515)
    for _ in range(30):
        market = random_planted_market(rng)
        measure = check_arbitrage(market)
        assert isinstance(measure, PricingMeasure)
        assert verify_certificate(market, measure).passed
        assert risk_neutral_consistency(market, measure).passed
        residual = np.linalg.norm(market.payoffs @ measure.state_prices - market.prices)
        assert residual <= 1e-9 * max(1.0, float(np.linalg.norm(market.prices)))


def test_dominated_assets_yield_certificates():
    rng = np.random.default_rng(1616)
    for _ in range(30):
        market = random_dominated_market(rng)
        certificate = check_arbitrage(market)
        assert isinstance(certificate, ArbitrageCertificate)
        assert verify_certificate(market, certificate).passed


def test_certificate_projection_geometry():
    rng = np.random.default_rng(1717)
    markets = [random_dominated_market(rng) for _ in range(20)]
    markets.append(ray_market(0.1))
    for market in markets:
        certificate = check_arbitrage(market)
        assert isinstance(certificate, ArbitrageCertificate)
        xi = certificate.portfolio
        cone_point = xi + market.prices
        x_norm_sq = float(market.prices @ market.prices)
        assert abs(float(xi @ cone_point)) <= 1e-8 * max(1.0, x_norm_sq)
        assert certificate.cost < 0.0
        assert float(xi @ xi) == pytest.approx(-certificate.cost, rel=1e-8)


def test_boundary_policy_flags():
    scale = max(1.0, float(np.linalg.norm(ray_market(0.0).prices)))
    clean = check_arbitrage(ray_market(0.2e-9 * scale))
    assert isinstance(clean, PricingMeasure) and not clean.near_boundary
    near = check_arbitrage(ray_market(0.8e-9 * scale))
    assert isinstance(near, PricingMeasure) and near.near_boundary
    assert not near.strictly_positive  # collinear generators: one weight is zero
    beyond = check_arbitrage(ray_market(5e-9 * scale))
    assert isinstance(beyond, ArbitrageCertificate)


def test_zero_price_market_is_degenerate():
    market = Market(instruments=("a",), prices=(0.0,), payoffs=[[1.0, 1.0]],
                    probabilities=(0.5, 0.5))
    with pytest.raises(DegenerateProblemError, match="mass"):
        check_arbitrage(market)


def test_check_arbitrage_rejects_nonpositive_tol(m1):
    with pytest.raises(ValueError):
        check_arbitrage(m1, tol=0.0)

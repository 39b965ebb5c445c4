"""Acceptance suite.

Every criterion prints one ``[PASS]``/``[FAIL]`` line (run pytest with ``-s``
to see the lines for passing criteria) and asserts at its stated tolerance.
Seeds are fixed, so the suite is fully deterministic.
"""

import time

import numpy as np

from conftest import (brute_moments, gmv_mean, invert_2x2, line_search_min_variance,
                      market_m1, random_dominated_market,
                      random_invertible_market, random_planted_market,
                      random_riskless_market)
from oneperiod.arbitrage import (ArbitrageCertificate, PricingMeasure,
                                 check_arbitrage, verify_certificate)
from oneperiod.capm import verify_realized_identity
from oneperiod.frontier import efficient_portfolio, find_riskless
from oneperiod.market import Market, moments, realized_return


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_pointwise_capm_identity():
    rng = np.random.default_rng(2026_01)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        market = random_invertible_market(rng)
        gmv = gmv_mean(market)
        xi = efficient_portfolio(market, gmv + 0.04).portfolio
        xi0 = efficient_portfolio(market, gmv + 0.01).portfolio
        xi1 = efficient_portfolio(market, gmv + 0.07).portfolio
        result = verify_realized_identity(market, xi, xi0, xi1)
        scale = max(1.0, float(np.abs(realized_return(market, xi).per_outcome).max()))
        worst = max(worst, result.max_abs_residual / scale)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8
    report("criterion-1 pointwise CAPM identity", ok,
           f"200 markets, worst scaled residual {worst:.3e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_riskless_route_identity():
    rng = np.random.default_rng(2026_02)
    worst_residual = 0.0
    worst_mu_gap = 0.0
    for _ in range(100):
        market = random_riskless_market(rng)
        info = find_riskless(market)
        tangency_mean = realized_return(market, info.tangency).mean
        mu_target = float(rng.uniform(-0.5, 1.5))
        rho = info.gross_return + mu_target * (tangency_mean - info.gross_return)
        solution = efficient_portfolio(market, rho)
        lhs = (realized_return(market, solution.portfolio).per_outcome
               - info.gross_return)
        rhs = solution.mu * (realized_return(market, info.tangency).per_outcome
                             - info.gross_return)
        worst_residual = max(worst_residual, float(np.abs(lhs - rhs).max()))
        b = verify_realized_identity(market, solution.portfolio, info.portfolio,
                                     info.tangency).beta
        worst_mu_gap = max(worst_mu_gap, abs(solution.mu - b))
    ok = worst_residual <= 1e-9 and worst_mu_gap <= 1e-8
    report("criterion-2 riskless-route identity", ok,
           f"100 markets, worst residual {worst_residual:.3e}, "
           f"worst |mu - beta| {worst_mu_gap:.3e}")
    assert ok


def test_criterion_3_closed_form_variance():
    rng = np.random.default_rng(2026_03)
    markets = [random_invertible_market(rng) for _ in range(60)]
    markets.append(Market(("s1", "s2"), (1.0, 1.0),
                          [[1.0, 1.1, 1.2], [1.4, 1.1, 0.9]],
                          (1 / 3, 1 / 3, 1 / 3)))
    worst = 0.0
    for market in markets:
        cov = moments(market).covariance
        gmv = gmv_mean(market)
        for offset in (0.0, 0.02, 0.06):
            solution = efficient_portfolio(market, gmv + offset)
            direct = float(solution.portfolio @ cov @ solution.portfolio)
            rel = abs(solution.variance - direct) / max(abs(direct), 1e-300)
            worst = max(worst, rel)
    ok = worst <= 1e-10
    report("criterion-3 closed-form variance", ok,
           f"{len(markets)} markets x 3 targets, worst relative gap {worst:.3e}")
    assert ok


def test_criterion_4_frontier_optimality_vs_oracle():
    rng = np.random.default_rng(2026_04)
    started = time.perf_counter()
    step = 1e-4
    worst_gap = -np.inf
    n_markets = 0
    while n_markets < 25:
        market = random_planted_market(rng, n=2, k=3)
        mean, _, cov = brute_moments(market)
        eigs = np.linalg.eigvalsh(cov)
        if eigs[0] <= 1e-6 * eigs[-1]:
            continue
        x = market.prices
        base = x / (x @ x)
        direction = np.array([x[1], -x[0]])
        direction /= np.linalg.norm(direction)
        slope = float(direction @ mean)
        if abs(slope) < 1e-3:
            continue
        n_markets += 1
        t_target = float(rng.integers(-1500, 1501)) * step
        rho = float(base @ mean) + t_target * slope
        solution = efficient_portfolio(market, rho)
        oracle_var, _ = line_search_min_variance(market, rho, step=step)
        worst_gap = max(worst_gap, solution.variance - oracle_var)
    elapsed = time.perf_counter() - started
    ok = worst_gap <= 1e-6
    report("criterion-4 frontier optimality vs line-search oracle", ok,
           f"25 markets, worst (solver - oracle) variance gap {worst_gap:.3e}, "
           f"{elapsed:.2f}s")
    assert ok


def test_criterion_5_ftap_round_trip():
    rng = np.random.default_rng(2026_05)
    measures = certificates = 0
    for _ in range(100):
        market = random_planted_market(rng)
        outcome = check_arbitrage(market)
        if isinstance(outcome, PricingMeasure) and verify_certificate(market, outcome).passed:
            measures += 1
    for _ in range(100):
        market = random_dominated_market(rng)
        outcome = check_arbitrage(market)
        if isinstance(outcome, ArbitrageCertificate) and verify_certificate(market, outcome).passed:
            certificates += 1
    ok = measures == 100 and certificates == 100
    report("criterion-5 FTAP round trip", ok,
           f"{measures}/100 planted measures verified, "
           f"{certificates}/100 dominated-asset certificates verified, zero crossovers")
    assert ok


def test_criterion_6_certificate_projection_geometry():
    rng = np.random.default_rng(2026_06)
    worst_orth = 0.0
    worst_cost = -np.inf
    count = 0
    for _ in range(100):
        market = random_dominated_market(rng)
        certificate = check_arbitrage(market)
        assert isinstance(certificate, ArbitrageCertificate)
        count += 1
        xi = certificate.portfolio
        cone_point = xi + market.prices
        x_norm_sq = float(market.prices @ market.prices)
        worst_orth = max(worst_orth, abs(float(xi @ cone_point)) / max(1.0, x_norm_sq))
        worst_cost = max(worst_cost, certificate.cost)
    ok = worst_orth <= 1e-8 and worst_cost < 0.0
    report("criterion-6 certificate projection geometry", ok,
           f"{count} certificates, worst |xi.x*|/||x||^2 {worst_orth:.3e}, "
           f"largest cost {worst_cost:.3e} (must stay < 0)")
    assert ok


def test_criterion_7_golden_m1():
    m1 = market_m1()
    tol = 1e-9
    failures = []

    def check(label, actual, expected):
        err = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))
        if err > tol:
            failures.append(f"{label} (err {err:.2e})")

    info = find_riskless(m1)
    check("zeta", info.portfolio, [1.0, 0.0])
    check("riskless return", info.gross_return, 1.1)
    check("tangency", info.tangency, [0.0, 1.0])

    solution = efficient_portfolio(m1, 1.12)
    check("efficient portfolio at 1.12", solution.portfolio, [0.5, 0.5])
    check("variance at 1.12", solution.variance, 0.0096)
    oracle_var, oracle_xi = line_search_min_variance(m1, 1.12, step=1e-3)
    check("variance vs grid oracle", solution.variance, oracle_var)
    check("portfolio vs grid oracle", solution.portfolio, oracle_xi)

    identity = verify_realized_identity(m1, solution.portfolio, info.portfolio,
                                        info.tangency)
    check("beta", identity.beta, 0.5)
    check("identity residual", identity.residual_per_outcome, [0.0, 0.0])

    measure = check_arbitrage(m1)
    state_oracle = invert_2x2(m1.payoffs) @ m1.prices
    check("state prices", measure.state_prices, [5.0 / 11.0, 5.0 / 11.0])
    check("state prices vs 2x2 oracle", measure.state_prices, state_oracle)
    check("implied return", measure.implied_return, 1.1)

    ok = not failures
    report("criterion-7 golden two-asset market", ok,
           "all hand-derived values reproduced to 1e-9" if ok
           else "; ".join(failures))
    assert ok

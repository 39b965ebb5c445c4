import json

import numpy as np
import pytest

from conftest import (bond_market, brute_moments, gmv_mean, invert_2x2,
                      line_search_min_variance, market_m1, market_m3,
                      random_invertible_market, random_planted_market,
                      random_riskless_market)
from oneperiod import cli, frontier
from oneperiod.errors import (ArbitragePresentError, DegenerateProblemError,
                              UnsupportedMarketError, ValidationError)
from oneperiod.frontier import (MODE_NONSINGULAR, MODE_RISKLESS, efficient_portfolio,
                                find_riskless, two_fund_compose)
from oneperiod.market import Market, moments, realized_return


def d_zero_market() -> Market:
    """Unit covariance with prices equal to the mean payoffs, so D = 0."""
    m = 1.1
    payoffs = np.array([[m + 1, m + 1, m - 1, m - 1],
                        [m + 1, m - 1, m + 1, m - 1]])
    return Market(instruments=("a", "b"), prices=(m, m), payoffs=payoffs,
                  probabilities=(0.25, 0.25, 0.25, 0.25))


# -- find_riskless ---------------------------------------------------------------

def test_find_riskless_m1(m1):
    info = find_riskless(m1)
    np.testing.assert_allclose(info.portfolio, [1.0, 0.0], atol=1e-12)
    assert info.gross_return == pytest.approx(1.1, rel=1e-12)
    np.testing.assert_allclose(info.tangency, [0.0, 1.0], atol=1e-12)


def test_find_riskless_invariants(m1):
    info = find_riskless(m1)
    cov = moments(m1).covariance
    quad = float(info.portfolio @ cov @ info.portfolio)
    assert quad <= 1e-10 * np.abs(cov).sum(axis=1).max()
    profile = realized_return(m1, info.portfolio)
    assert np.abs(profile.per_outcome - info.gross_return).max() <= 1e-9


def test_find_riskless_absent_for_m3(m3):
    assert find_riskless(m3) is None


def test_find_riskless_two_returns_is_arbitrage():
    market = Market(instruments=("a", "b"), prices=(1.0, 0.9),
                    payoffs=[[1.1, 1.1], [1.1, 1.1]], probabilities=(0.5, 0.5))
    with pytest.raises(ArbitragePresentError, match="riskless"):
        find_riskless(market)


def test_find_riskless_all_constant_market_has_degenerate_tangency():
    market = Market(instruments=("a", "b"), prices=(1.0, 2.0),
                    payoffs=[[1.2, 1.2], [2.4, 2.4]], probabilities=(0.5, 0.5))
    info = find_riskless(market)
    assert info.tangency is None
    assert info.gross_return == pytest.approx(1.2, rel=1e-12)


def test_riskless_cost_check_fails_closed_on_nan(m1, monkeypatch):
    monkeypatch.setattr(frontier, "ROUNDING_RTOL", float("nan"))
    with pytest.raises(ArbitragePresentError, match="nonpositive cost"):
        frontier._find_riskless(m1, moments(m1))


def test_find_riskless_single_asset():
    market = Market(instruments=("only",), prices=(1.0,), payoffs=[[1.1, 1.1]],
                    probabilities=(0.4, 0.6))
    info = find_riskless(market)
    assert info.gross_return == pytest.approx(1.1, rel=1e-12)
    np.testing.assert_allclose(info.portfolio, [1.0], rtol=1e-12)


# -- frontier constants ----------------------------------------------------------

def test_frontier_constants_m3_golden(m3):
    # hand-derived: V = [[1/150, -1/60], [-1/60, 19/450]], inv = [[11400, 4500],
    # [4500, 1800]]; quadratic forms with x = (1,1), E[X] = (1.1, 17/15)
    a, b, c, d = 22200.0, 24630.0, 27326.0, 300.0
    mean, _, cov = brute_moments(m3)
    inv = invert_2x2(cov)
    assert a == pytest.approx(m3.prices @ inv @ m3.prices, rel=1e-10)
    assert b == pytest.approx(m3.prices @ inv @ mean, rel=1e-10)
    assert c == pytest.approx(mean @ inv @ mean, rel=1e-10)
    assert d == pytest.approx(a * c - b * b, rel=1e-6)
    for rho in (b / a, 1.05, 1.12, 1.2):
        variance = efficient_portfolio(m3, rho).variance
        assert variance == pytest.approx((c - 2 * b * rho + a * rho * rho) / d, rel=1e-9)


def test_frontier_constants_b_symmetric_random():
    rng = np.random.default_rng(808)
    for _ in range(20):
        market = random_invertible_market(rng)
        mean, _, cov = brute_moments(market)
        inv = np.linalg.inv(cov)
        a = market.prices @ inv @ market.prices
        b = market.prices @ inv @ mean
        c = mean @ inv @ mean
        assert abs(b - mean @ inv @ market.prices) <= 1e-9 * max(1.0, abs(b))
        # the minimum-variance portfolio earns b/a at variance 1/a, and the
        # frontier variance is (c - 2 b rho + a rho^2)/d, with d = a c - b^2
        minimum = efficient_portfolio(market, b / a)
        assert minimum.variance == pytest.approx(1.0 / a, rel=1e-8)
        assert minimum.lam == pytest.approx(1.0 / a, rel=1e-8)
        assert abs(minimum.mu) <= 1e-8 * minimum.lam
        rho = b / a + 0.05
        variance = efficient_portfolio(market, rho).variance
        assert variance == pytest.approx((c - 2 * b * rho + a * rho * rho) / (a * c - b * b),
                                         rel=1e-6)


# -- efficient portfolios --------------------------------------------------------

def test_efficient_m1_golden(m1):
    solution = efficient_portfolio(m1, 1.12)
    assert solution.mode == MODE_RISKLESS
    np.testing.assert_allclose(solution.portfolio, [0.5, 0.5], atol=1e-12)
    assert solution.mu == pytest.approx(0.5, abs=1e-12)
    assert solution.lam == pytest.approx(-0.55, abs=1e-12)
    assert solution.variance == pytest.approx(0.0096, abs=1e-14)
    oracle_var, oracle_xi = line_search_min_variance(m1, 1.12, step=1e-3)
    assert solution.variance == pytest.approx(oracle_var, abs=1e-12)
    np.testing.assert_allclose(solution.portfolio, oracle_xi, atol=1e-9)


def test_efficient_m1_riskless_target(m1):
    solution = efficient_portfolio(m1, 1.1)
    np.testing.assert_allclose(solution.portfolio, [1.0, 0.0], atol=1e-12)
    assert solution.mu == 0.0
    assert solution.variance == 0.0


def test_efficient_m3_golden(m3):
    solution = efficient_portfolio(m3, 1.12)
    assert solution.mode == MODE_NONSINGULAR
    np.testing.assert_allclose(solution.portfolio, [0.4, 0.6], rtol=1e-9)
    cov = moments(m3).covariance
    direct = float(solution.portfolio @ cov @ solution.portfolio)
    assert solution.variance == pytest.approx(direct, rel=1e-10)
    assert solution.variance == pytest.approx(0.0248 / 3.0, rel=1e-9)
    oracle_var, _ = line_search_min_variance(m3, 1.12, step=1e-3)
    assert solution.variance == pytest.approx(oracle_var, abs=1e-4)


def test_efficient_rejects_degenerate_target_space():
    with pytest.raises(DegenerateProblemError, match="one expected return"):
        efficient_portfolio(d_zero_market(), 1.2)


def test_degenerate_d_check_fails_closed_on_nan(m3, monkeypatch):
    monkeypatch.setattr(frontier, "ROUNDING_RTOL", float("nan"))
    with pytest.raises(DegenerateProblemError, match="one expected return"):
        efficient_portfolio(m3, 1.12)


def test_efficient_rejects_singular_without_riskless():
    market = Market(instruments=("a", "b"), prices=(1.0, 1.0),
                    payoffs=[[1.0, 0.9], [1.0, 0.9]], probabilities=(0.5, 0.5))
    with pytest.raises(UnsupportedMarketError):
        efficient_portfolio(market, 1.05)


@pytest.mark.parametrize("target", [float("nan"), float("inf")])
def test_efficient_non_finite_target_fails_its_checks(m1, m3, target):
    for market in (m1, m3):
        with pytest.raises(ValidationError, match="finite"):
            efficient_portfolio(market, target)


def test_efficient_degenerate_tangency_refuses_risky_targets():
    market = Market(instruments=("a", "b"), prices=(1.0, 2.0),
                    payoffs=[[1.2, 1.2], [2.4, 2.4]], probabilities=(0.5, 0.5))
    riskless = efficient_portfolio(market, 1.2)
    assert riskless.variance == 0.0
    with pytest.raises(DegenerateProblemError, match="tangency"):
        efficient_portfolio(market, 1.3)


def test_nonsingular_solution_properties_random():
    rng = np.random.default_rng(909)
    for _ in range(30):
        market = random_invertible_market(rng)
        mean, _, cov = brute_moments(market)
        rho = gmv_mean(market) + float(rng.uniform(0.01, 0.08))
        solution = efficient_portfolio(market, rho)
        xi = solution.portfolio
        assert float(xi @ market.prices) == pytest.approx(1.0, abs=1e-9)
        assert float(xi @ mean) == pytest.approx(rho, abs=1e-8)
        # stationarity of the Lagrangian at the reported multipliers
        residual = cov @ xi - solution.lam * market.prices - solution.mu * mean
        scale = np.abs(cov).sum(axis=1).max()
        assert np.abs(residual).max() <= 1e-8 * scale
        # closed-form variance equals the direct quadratic form
        assert solution.variance == pytest.approx(float(xi @ cov @ xi), rel=1e-10)
        # no feasible perturbation lowers the variance
        basis = np.vstack([market.prices, mean])
        for _ in range(50):
            eta = rng.normal(size=market.n_instruments)
            coeffs = np.linalg.lstsq(basis.T, eta, rcond=None)[0]
            eta = eta - basis.T @ coeffs
            if np.linalg.norm(eta) < 1e-9:
                continue
            for eps in (1e-3, -1e-3):
                perturbed = xi + eps * eta
                var = float(perturbed @ cov @ perturbed)
                assert var >= solution.variance - 1e-12 * max(1.0, solution.variance)


@pytest.fixture(scope="module")
def wide_market() -> Market:
    return random_planted_market(np.random.default_rng(1), 100, 3000)


@pytest.mark.parametrize("rho", [1.0, 1.2, 1.5, 2.0])
def test_refinement_meets_both_constraints_on_a_wide_market(wide_market, rho):
    # Unrefined, these portfolios missed unit cost by 3.8e-8 to 1.3e-7.
    solution = efficient_portfolio(wide_market, rho)
    mean = wide_market.payoffs @ wide_market.probabilities
    assert abs(float(solution.portfolio @ wide_market.prices) - 1.0) <= 1e-10
    assert abs(float(solution.portfolio @ mean) - rho) <= 1e-10 * rho


def test_refinement_meets_both_constraints_on_a_small_market():
    # The first seed-909 market, 2 x 9 with condition number 3.3, missed unit
    # cost by 1.2e-9 at this target unrefined.
    market = random_invertible_market(np.random.default_rng(909))
    xi = efficient_portfolio(market, gmv_mean(market) + 0.05).portfolio
    assert abs(float(xi @ market.prices) - 1.0) <= 1e-12


@pytest.mark.parametrize("face", [1e3, 1e4, 1e5])
def test_bond_with_large_face_value_is_riskless(face):
    # E[XX'] - E[X]E[X]' left the bond a variance of order face^2 * eps.
    for seed in range(20):
        solution = efficient_portfolio(bond_market(np.random.default_rng(seed), face), 1.05)
        assert solution.mode == MODE_RISKLESS
        assert solution.variance == 0.0


def test_riskless_route_pointwise_identity_random():
    rng = np.random.default_rng(1010)
    for _ in range(30):
        market = random_riskless_market(rng)
        info = find_riskless(market)
        assert info is not None and info.tangency is not None
        tangency_mean = realized_return(market, info.tangency).mean
        mu_target = float(rng.uniform(-0.5, 1.5))
        rho = info.gross_return + mu_target * (tangency_mean - info.gross_return)
        solution = efficient_portfolio(market, rho)
        assert solution.mode == MODE_RISKLESS
        assert solution.mu == pytest.approx(mu_target, rel=1e-9, abs=1e-12)
        # pointwise: R(xi) - R = mu (R(alpha) - R) on every outcome
        lhs = realized_return(market, solution.portfolio).per_outcome - info.gross_return
        rhs = solution.mu * (realized_return(market, info.tangency).per_outcome
                             - info.gross_return)
        assert np.abs(lhs - rhs).max() <= 1e-9
        # stationarity in the one-parameter form V xi = mu~ (E[X] - R x)
        mean, _, cov = brute_moments(market)
        excess = mean - info.gross_return * market.prices
        lhs_v = cov @ solution.portfolio
        denom = float(excess @ excess)
        mu_eff = float(lhs_v @ excess) / denom if denom > 0 else 0.0
        residual = lhs_v - mu_eff * excess
        assert np.abs(residual).max() <= 1e-8 * np.abs(cov).sum(axis=1).max()


def with_copy(market: Market, row: int, markup: float = 1.0) -> Market:
    """``market`` plus a copy of instrument ``row`` priced at ``markup`` times its price."""
    return Market(instruments=market.instruments + ("copy",),
                  prices=np.append(market.prices, markup * market.prices[row]),
                  payoffs=np.vstack([market.payoffs, market.payoffs[row]]),
                  probabilities=market.probabilities)


def test_riskless_route_with_redundant_risky_instrument():
    rng = np.random.default_rng(1313)
    for _ in range(20):
        market = random_riskless_market(rng)
        row = int(rng.integers(1, market.n_instruments))
        copied = with_copy(market, row)

        def merged(xi):
            summed = np.array(xi[:-1])
            summed[row] += xi[-1]
            return summed

        info = find_riskless(market)
        info_c = find_riskless(copied)
        assert info_c.gross_return == pytest.approx(info.gross_return, rel=1e-12)
        np.testing.assert_allclose(merged(info_c.portfolio), info.portfolio,
                                   rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(merged(info_c.tangency), info.tangency,
                                   rtol=1e-9, atol=1e-10)
        rho = info.gross_return + float(rng.uniform(-0.05, 0.05))
        solution = efficient_portfolio(market, rho)
        solution_c = efficient_portfolio(copied, rho)
        assert solution_c.mode == MODE_RISKLESS
        assert solution_c.variance == pytest.approx(solution.variance, rel=1e-9, abs=1e-14)
        np.testing.assert_allclose(merged(solution_c.portfolio), solution.portfolio,
                                   rtol=1e-9, atol=1e-10)

        marked_up = with_copy(market, row, markup=1.01)
        with pytest.raises(ArbitragePresentError, match="zero-payoff"):
            find_riskless(marked_up)
        with pytest.raises(ArbitragePresentError, match="zero-payoff"):
            efficient_portfolio(marked_up, rho)


# -- decomposition counts ---------------------------------------------------------

_DECOMPOSITIONS = ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
                   "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd")


@pytest.fixture
def linalg_outputs(monkeypatch):
    """One entry per numpy.linalg decomposition call: the size of its largest output."""
    outputs = []
    for name in _DECOMPOSITIONS:
        def counted(*args, _fn=getattr(np.linalg, name), **kwargs):
            result = _fn(*args, **kwargs)
            parts = result if isinstance(result, tuple) else (result,)
            outputs.append(max(np.size(part) for part in parts))
            return result
        monkeypatch.setattr(np.linalg, name, counted)
    return outputs


def test_decompositions_per_call(linalg_outputs):
    rng = np.random.default_rng(1414)
    for _ in range(5):
        market = random_invertible_market(rng)
        n = market.n_instruments
        linalg_outputs.clear()
        efficient_portfolio(market, 1.05)
        assert len(linalg_outputs) <= 2
        assert max(linalg_outputs) <= n * n

        market = random_riskless_market(rng)
        n = market.n_instruments
        linalg_outputs.clear()
        info = find_riskless(market)
        assert len(linalg_outputs) == 1
        linalg_outputs.clear()
        solution = efficient_portfolio(market, info.gross_return + 0.02)
        assert solution.mode == MODE_RISKLESS
        assert len(linalg_outputs) <= 1
        assert max(linalg_outputs) <= n * n


@pytest.mark.parametrize("market, argv", [
    (market_m1, ["check"]),
    (market_m1, ["frontier", "--rho", "1.12"]),
    (market_m3, ["frontier", "--rho", "1.12"]),
    (market_m1, ["capm", "--rho", "1.12"]),
    (market_m3, ["capm", "--rho", "1.12", "--rho0", "1.05", "--rho1", "1.2"]),
    (market_m1, ["arbitrage"]),
    (market_m1, ["measure"]),
    (market_m1, ["capm", "--rho", "1.12", "--rho0", "1.1", "--rho1", "1.14"]),
])
def test_each_cli_command_runs_eigh_at_most_once(tmp_path, monkeypatch, capsys,
                                                 market, argv):
    """Each command factors the covariance once and builds one frontier: at
    most one ``eigh``, one ``qr`` and one riskless search."""
    m = market()
    path = tmp_path / "market.json"
    path.write_text(json.dumps({"instruments": list(m.instruments),
                                "prices": m.prices.tolist(),
                                "probabilities": m.probabilities.tolist(),
                                "payoffs": m.payoffs.tolist()}))
    calls = []

    def counted(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(name) or fn(*a, **kw))

    counted(np.linalg, "eigh")
    counted(np.linalg, "qr")
    counted(frontier, "_find_riskless")
    assert cli.main(argv + ["--model", str(path)]) == 0
    assert all(calls.count(name) <= 1 for name in ("eigh", "qr", "_find_riskless"))


# -- two-fund composition --------------------------------------------------------

def test_two_fund_endpoints(m3):
    f0 = efficient_portfolio(m3, 1.05)
    f1 = efficient_portfolio(m3, 1.20)
    beta0, xi0 = two_fund_compose(m3, f0, f1, 1.05)
    assert beta0 == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(xi0, f0.portfolio, rtol=1e-12)
    beta1, xi1 = two_fund_compose(m3, f0, f1, 1.20)
    assert beta1 == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(xi1, f1.portfolio, rtol=1e-12)


def test_two_fund_m1_interpolation(m1):
    f0 = efficient_portfolio(m1, 1.1)
    f1 = efficient_portfolio(m1, 1.14)
    beta, xi = two_fund_compose(m1, f0, f1, 1.12)
    assert beta == pytest.approx(0.5, rel=1e-12)
    np.testing.assert_allclose(xi, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(xi, efficient_portfolio(m1, 1.12).portfolio, atol=1e-12)


def test_two_fund_rejects_equal_targets(m3):
    f0 = efficient_portfolio(m3, 1.1)
    with pytest.raises(DegenerateProblemError, match="identical target means"):
        two_fund_compose(m3, f0, f0, 1.15)


def test_two_fund_span_reproduces_third_fund():
    rng = np.random.default_rng(1111)
    for _ in range(15):
        market = random_invertible_market(rng)
        gmv = gmv_mean(market)
        rho0, rho1, rho2 = gmv + 0.02, gmv + 0.05, gmv + 0.09
        f0 = efficient_portfolio(market, rho0)
        f1 = efficient_portfolio(market, rho1)
        f2 = efficient_portfolio(market, rho2)
        _, composed = two_fund_compose(market, f0, f1, rho2)
        np.testing.assert_allclose(composed, f2.portfolio, atol=1e-8)

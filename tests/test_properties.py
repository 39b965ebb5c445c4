"""Invariances of the mathematics, checked on generated markets.

Each example draws a seed and builds its market with the seeded generators
of ``conftest`` through ``np.random.default_rng``, so a failing example is
reproduced by its seed alone. The profile is derandomized and keeps no
example database, so every run checks the same markets.
"""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import random_invertible_market, random_planted_market, random_riskless_market
from oneperiod.arbitrage import ArbitrageCertificate, check_arbitrage, verify_certificate
from oneperiod.capm import verify_realized_identity
from oneperiod.errors import UnsupportedMarketError
from oneperiod.frontier import efficient_portfolio
from oneperiod.market import Market, realized_return

profile = settings(derandomize=True, deadline=None, database=None, max_examples=60)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
frontier_kinds = st.sampled_from(("invertible", "riskless"))


def frontier_market(kind: str, seed: int) -> Market:
    """Planted market, 2-6 instruments, up to 40 outcomes, payoffs U(0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    if kind == "invertible":
        return random_invertible_market(rng, n_max=6, k_max=40)
    return random_riskless_market(rng, n_max=6, k_max=40)


def targets(market: Market) -> np.ndarray:
    """Three expected returns spread across the instruments' own."""
    own = (market.payoffs @ market.probabilities) / market.prices
    return own.min() + (own.max() - own.min()) * np.array([0.2, 0.5, 0.9])


def efficient(market: Market, rho: float) -> np.ndarray:
    # A market that misses the unit-cost check is an open refinement item,
    # not a failed invariance.
    try:
        return efficient_portfolio(market, rho).portfolio
    except UnsupportedMarketError:
        reject()


def assert_same_portfolio(actual, expected) -> None:
    np.testing.assert_allclose(actual, expected, rtol=1e-9,
                               atol=1e-9 * float(np.abs(expected).max()))


def rebuilt(market: Market, prices, payoffs, probabilities, instruments=None) -> Market:
    return Market(instruments=market.instruments if instruments is None else instruments,
                  prices=prices, payoffs=payoffs, probabilities=probabilities)


@profile
@given(kind=frontier_kinds, seed=seeds, data=st.data())
def test_permuting_instruments_permutes_the_efficient_portfolio(kind, seed, data):
    market = frontier_market(kind, seed)
    perm = np.array(data.draw(st.permutations(range(market.n_instruments))))
    permuted = rebuilt(market, market.prices[perm], market.payoffs[perm],
                       market.probabilities, tuple(market.instruments[i] for i in perm))
    rho = float(targets(market)[1])
    assert_same_portfolio(efficient(permuted, rho), efficient(market, rho)[perm])


@profile
@given(kind=frontier_kinds, seed=seeds, data=st.data())
def test_permuting_outcomes_leaves_the_efficient_portfolio(kind, seed, data):
    market = frontier_market(kind, seed)
    perm = np.array(data.draw(st.permutations(range(market.n_outcomes))))
    permuted = rebuilt(market, market.prices, market.payoffs[:, perm],
                       market.probabilities[perm])
    rho = float(targets(market)[1])
    assert_same_portfolio(efficient(permuted, rho), efficient(market, rho))


@profile
@given(kind=frontier_kinds, seed=seeds, data=st.data())
def test_splitting_an_outcome_leaves_the_efficient_portfolio(kind, seed, data):
    market = frontier_market(kind, seed)
    w = data.draw(st.integers(min_value=0, max_value=market.n_outcomes - 1))
    probabilities = market.probabilities.copy()
    probabilities[w] /= 2.0
    split = rebuilt(market, market.prices,
                    np.column_stack([market.payoffs, market.payoffs[:, w]]),
                    np.append(probabilities, probabilities[w]))
    rho = float(targets(market)[1])
    assert_same_portfolio(efficient(split, rho), efficient(market, rho))


@profile
@given(kind=frontier_kinds, seed=seeds)
def test_realized_identity_holds_for_three_frontier_targets(kind, seed):
    market = frontier_market(kind, seed)
    xi0, xi, xi1 = (efficient(market, float(rho)) for rho in targets(market))
    report = verify_realized_identity(market, xi, xi0, xi1)
    scale = max(1.0, float(np.abs(realized_return(market, xi).per_outcome).max()))
    assert report.max_abs_residual <= 1e-9 * scale


@profile
@given(seed=seeds, n=st.integers(min_value=2, max_value=8),
       k=st.integers(min_value=2, max_value=60), clone=st.booleans())
def test_arbitrage_verdict_is_the_planted_one_and_verifies(seed, n, k, clone):
    rng = np.random.default_rng(seed)
    market = random_planted_market(rng, n=n - 1 if clone else n, k=k)
    if clone:
        # A copy of one instrument's payoffs, marked up by 1-10%: an arbitrage.
        i = int(rng.integers(0, market.n_instruments))
        market = Market(instruments=tuple(f"a{j}" for j in range(n)),
                        prices=np.append(market.prices,
                                         (1.0 + rng.uniform(0.01, 0.10)) * market.prices[i]),
                        payoffs=np.vstack([market.payoffs, market.payoffs[i]]),
                        probabilities=market.probabilities)
    outcome = check_arbitrage(market)
    assert isinstance(outcome, ArbitrageCertificate) == clone
    assert verify_certificate(market, outcome).passed

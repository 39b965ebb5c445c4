import json

import numpy as np
import pytest

from conftest import brute_moments, market_m1, random_planted_market
from oneperiod.errors import ValidationError, ZeroCostPortfolioError
from oneperiod.market import (Market, load_market, market_from_dict, moments,
                              realized_return, validate_market)


def test_validate_m1_passes(m1):
    assert validate_market(m1) is m1


def test_validate_minimal_single_asset_market():
    market = Market(instruments=("only",), prices=(1.0,), payoffs=[[1.1]],
                    probabilities=(1.0,))
    validate_market(market)


def test_validate_rejects_unnormalized_probabilities():
    market = Market(instruments=("bond", "stock"), prices=(1.0, 1.0),
                    payoffs=[[1.1, 1.1], [1.3, 0.9]], probabilities=(0.6, 0.5))
    with pytest.raises(ValidationError, match="sum to 1.1"):
        validate_market(market)


@pytest.mark.parametrize("probabilities, fragment", [
    ((0.5, 0.0, 0.5), "outcome 1"),
    ((0.5, -0.1, 0.6), "outcome 1"),
    ((0.5, float("nan"), 0.5), "outcome 1"),
])
def test_validate_rejects_bad_probability_entries(probabilities, fragment):
    market = Market(instruments=("a",), prices=(1.0,), payoffs=[[1.0, 1.1, 1.2]],
                    probabilities=probabilities)
    with pytest.raises(ValidationError, match=fragment):
        validate_market(market)


@pytest.mark.parametrize("prices, probabilities, message", [
    ((1.0, 1.0), (0.5, 0.0, float("nan")),
     "probability of outcome 1 is 0.0; must be at least 1e-12"),
    ((1.0, 1.0), (0.5, -0.1, 0.6),
     "probability of outcome 1 is -0.1; must be at least 1e-12"),
    ((1.0, 1.0), (0.5, float("inf"), -1.0), "probability of outcome 1 is not finite"),
    ((1.0, float("nan")), (0.5, 0.5, 0.0), "price of instrument 'b' (index 1) is not finite"),
])
def test_validate_reports_first_offender_in_plain_numbers(prices, probabilities, message):
    market = Market(instruments=("a", "b"), prices=prices,
                    payoffs=[[1.0, 1.1, 1.2], [0.9, 1.0, 1.3]], probabilities=probabilities)
    with pytest.raises(ValidationError) as excinfo:
        validate_market(market)
    assert str(excinfo.value) == message


def test_validate_rejects_shape_mismatches():
    with pytest.raises(ValidationError, match="2 rows"):
        validate_market(Market(instruments=("a",), prices=(1.0,),
                               payoffs=[[1.0], [2.0]], probabilities=(1.0,)))
    with pytest.raises(ValidationError, match="2 probabilities"):
        validate_market(Market(instruments=("a",), prices=(1.0,),
                               payoffs=[[1.0]], probabilities=(0.5, 0.5)))
    with pytest.raises(ValidationError, match="2 prices"):
        validate_market(Market(instruments=("a",), prices=(1.0, 2.0),
                               payoffs=[[1.0]], probabilities=(1.0,)))


def test_validate_rejects_non_finite_payoff():
    market = Market(instruments=("a", "b"), prices=(1.0, 1.0),
                    payoffs=[[1.0, 1.0], [np.inf, 1.0]], probabilities=(0.5, 0.5))
    with pytest.raises(ValidationError, match="'b' in outcome 0"):
        validate_market(market)


def test_validate_rejects_duplicate_instruments_and_bad_labels():
    with pytest.raises(ValidationError, match="duplicate instrument"):
        validate_market(Market(instruments=("a", "a"), prices=(1.0, 1.0),
                               payoffs=[[1.0], [1.0]], probabilities=(1.0,)))
    with pytest.raises(ValidationError, match="outcome labels"):
        validate_market(Market(instruments=("a",), prices=(1.0,),
                               payoffs=[[1.0, 1.1]], probabilities=(0.5, 0.5),
                               outcome_labels=("only",)))


def test_moments_m1_hand_values(m1):
    mm = moments(m1)
    np.testing.assert_allclose(mm.mean, [1.1, 1.14], rtol=1e-12)
    np.testing.assert_allclose(mm.covariance, [[0.0, 0.0], [0.0, 0.0384]],
                               atol=1e-12)
    oracle_mean, oracle_second, oracle_cov = brute_moments(m1)
    np.testing.assert_allclose(mm.mean, oracle_mean, rtol=1e-13)
    np.testing.assert_allclose(mm.second_moment, oracle_second, rtol=1e-13)
    np.testing.assert_allclose(mm.covariance, oracle_cov, atol=1e-14)


def test_moments_constant_rows_have_zero_covariance():
    market = Market(instruments=("a", "b"), prices=(1.0, 1.0),
                    payoffs=[[2.0, 2.0, 2.0], [0.5, 0.5, 0.5]],
                    probabilities=(0.2, 0.3, 0.5))
    np.testing.assert_allclose(moments(market).covariance, np.zeros((2, 2)),
                               atol=1e-14)


def test_moments_m3_covariance_invertible(m3):
    _, _, oracle_cov = brute_moments(m3)
    det = oracle_cov[0, 0] * oracle_cov[1, 1] - oracle_cov[0, 1] * oracle_cov[1, 0]
    assert det > 1e-8
    np.testing.assert_allclose(moments(m3).covariance, oracle_cov, atol=1e-14)


def test_realized_return_riskless_row(m1):
    profile = realized_return(m1, (1.0, 0.0))
    np.testing.assert_allclose(profile.per_outcome, [1.1, 1.1], rtol=1e-14)
    assert profile.variance == pytest.approx(0.0, abs=1e-16)


def test_realized_return_mixed_portfolio(m1):
    profile = realized_return(m1, (0.5, 0.5))
    np.testing.assert_allclose(profile.per_outcome, [1.2, 1.0], rtol=1e-14)
    assert profile.mean == pytest.approx(1.12, abs=1e-14)
    assert profile.variance == pytest.approx(0.0096, abs=1e-14)


@pytest.mark.parametrize("scale", [-2.0, 0.5, 10.0])
def test_realized_return_scale_invariance(m1, scale):
    xi = np.array([0.3, 0.7])
    base = realized_return(m1, xi)
    scaled = realized_return(m1, scale * xi)
    np.testing.assert_allclose(scaled.per_outcome, base.per_outcome, rtol=1e-12)
    assert scaled.mean == pytest.approx(base.mean, rel=1e-12)
    assert scaled.variance == pytest.approx(base.variance, rel=1e-12, abs=1e-18)


def test_realized_return_zero_cost_rejected(m1):
    with pytest.raises(ZeroCostPortfolioError):
        realized_return(m1, (1.0, -1.0))


def test_realized_return_rejects_wrong_dimension(m1):
    with pytest.raises(ValidationError, match="shape"):
        realized_return(m1, (1.0, 2.0, 3.0))


def test_result_arrays_are_read_only(m1):
    mm = moments(m1)
    profile = realized_return(m1, (1.0, 1.0))
    arrays = {"prices": m1.prices, "payoffs": m1.payoffs, "probabilities": m1.probabilities,
              "mean": mm.mean, "second_moment": mm.second_moment,
              "covariance": mm.covariance, "eigenvalues": mm.eigenvalues,
              "eigenvectors": mm.eigenvectors, "per_outcome": profile.per_outcome}
    assert [name for name, arr in arrays.items() if arr.flags.writeable] == []


def test_profile_variance_matches_quadratic_form():
    rng = np.random.default_rng(101)
    for _ in range(40):
        market = random_planted_market(rng)
        cov = moments(market).covariance
        xi = rng.normal(size=market.n_instruments)
        cost = float(xi @ market.prices)
        if abs(cost) < 1e-3:
            continue
        unit = xi / cost
        profile = realized_return(market, xi)
        quadratic = float(unit @ cov @ unit)
        assert profile.variance == pytest.approx(quadratic, rel=1e-10, abs=1e-14)


def test_moments_mean_is_linear_in_probabilities():
    rng = np.random.default_rng(202)
    for _ in range(20):
        n, k = 3, 5
        payoffs = rng.uniform(0.5, 1.5, size=(n, k))
        prices = np.ones(n)
        p1 = rng.uniform(0.2, 1.0, size=k)
        p1 /= p1.sum()
        p2 = rng.uniform(0.2, 1.0, size=k)
        p2 /= p2.sum()
        t = float(rng.uniform(0.0, 1.0))
        mix = t * p1 + (1.0 - t) * p2
        names = tuple(f"a{i}" for i in range(n))
        mean_mix = moments(Market(names, prices, payoffs, mix)).mean
        mean_1 = moments(Market(names, prices, payoffs, p1)).mean
        mean_2 = moments(Market(names, prices, payoffs, p2)).mean
        np.testing.assert_allclose(mean_mix, t * mean_1 + (1.0 - t) * mean_2,
                                   rtol=1e-12)


# -- market file format --------------------------------------------------------

def market_document():
    m = market_m1()
    return {
        "instruments": list(m.instruments),
        "prices": m.prices.tolist(),
        "probabilities": m.probabilities.tolist(),
        "payoffs": m.payoffs.tolist(),
        "outcome_labels": list(m.outcome_labels),
    }


def test_load_market_round_trip(tmp_path, m1):
    path = tmp_path / "m1.json"
    path.write_text(json.dumps(market_document()))
    loaded = load_market(path)
    assert loaded.instruments == m1.instruments
    assert loaded.outcome_labels == m1.outcome_labels
    np.testing.assert_array_equal(loaded.prices, m1.prices)
    np.testing.assert_array_equal(loaded.payoffs, m1.payoffs)
    np.testing.assert_array_equal(loaded.probabilities, m1.probabilities)


def test_market_from_dict_rejects_unknown_key():
    document = market_document()
    document["dividends"] = [0.0, 0.0]
    with pytest.raises(ValidationError, match="dividends"):
        market_from_dict(document)


def test_market_from_dict_rejects_missing_key():
    document = market_document()
    del document["prices"]
    with pytest.raises(ValidationError, match="'prices'"):
        market_from_dict(document)


def test_market_from_dict_rejects_non_numeric_prices():
    document = market_document()
    document["prices"] = ["cheap", "dear"]
    with pytest.raises(ValidationError, match="prices"):
        market_from_dict(document)


@pytest.mark.parametrize("prices, message", [
    (["1.0", 1.0], "prices is not numeric"),
    ([None, 1.0], "prices is not numeric"),
    ([True, False], "prices is not numeric"),
    ([{"value": 1.0}, 1.0], "prices is not numeric"),
    ([10**400, 1.0], "prices holds a number beyond the float range"),
])
def test_market_from_dict_accepts_only_numbers(prices, message):
    document = market_document()
    document["prices"] = prices
    with pytest.raises(ValidationError, match=message):
        market_from_dict(document)


def test_market_from_dict_converts_integers_of_any_size():
    document = market_document()
    document["prices"] = [1, 2**64]
    assert market_from_dict(document).prices.tolist() == [1.0, 2.0**64]


def test_load_market_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        load_market(tmp_path / "absent.json")


def test_load_market_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_market(path)

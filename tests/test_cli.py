import json

import pytest

from conftest import market_m1, market_m2, market_m3
from oneperiod import cli
from oneperiod.arbitrage import check_arbitrage
from oneperiod.frontier import efficient_portfolio
from oneperiod.market import Market


def write_market(tmp_path, market: Market, name: str) -> str:
    document = {
        "instruments": list(market.instruments),
        "prices": market.prices.tolist(),
        "probabilities": market.probabilities.tolist(),
        "payoffs": market.payoffs.tolist(),
    }
    if market.outcome_labels is not None:
        document["outcome_labels"] = list(market.outcome_labels)
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


@pytest.fixture
def m1_path(tmp_path):
    return write_market(tmp_path, market_m1(), "m1.json")


@pytest.fixture
def m2_path(tmp_path):
    return write_market(tmp_path, market_m2(), "m2.json")


@pytest.fixture
def m3_path(tmp_path):
    return write_market(tmp_path, market_m3(), "m3.json")


def run_json(capsys, argv):
    code = cli.main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_command_json(capsys, m1_path):
    code, report = run_json(capsys, ["check", "--model", m1_path])
    assert code == 0
    assert report["command"] == "check"
    assert report["model"] == m1_path
    assert report["tolerance"] == 1e-9
    result = report["result"]
    assert result["valid"] is True
    assert result["instruments"] == ["bond", "stock"]
    assert result["mean_payoff"]["stock"] == pytest.approx(1.14, rel=1e-12)
    assert result["covariance"]["bond"]["bond"] == 0.0


def test_frontier_command_matches_library(capsys, m1_path):
    code, report = run_json(capsys, ["frontier", "--model", m1_path, "--rho", "1.12"])
    assert code == 0
    solution = efficient_portfolio(market_m1(), 1.12)
    result = report["result"]
    # bit-exact round trip of every numeric field
    assert result["variance"] == solution.variance
    assert result["lambda"] == solution.lam
    assert result["mu"] == solution.mu
    assert result["target_mean"] == solution.target_mean
    assert result["mode"] == "riskless_route"
    assert result["portfolio"]["bond"] == float(solution.portfolio[0])
    assert result["portfolio"]["stock"] == float(solution.portfolio[1])


def test_frontier_requires_rho(m1_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frontier", "--model", m1_path])
    assert excinfo.value.code == 2


def test_text_and_json_agree_on_numbers(capsys, m1_path):
    code = cli.main(["frontier", "--model", m1_path, "--rho", "1.12"])
    assert code == 0
    text = capsys.readouterr().out
    _, report = run_json(capsys, ["frontier", "--model", m1_path, "--rho", "1.12"])
    result = report["result"]
    for value in (result["variance"], result["lambda"], result["mu"],
                  result["portfolio"]["bond"], result["portfolio"]["stock"]):
        assert repr(value) in text


def test_capm_command_default_funds(capsys, m1_path):
    code, report = run_json(capsys, ["capm", "--model", m1_path, "--rho", "1.12"])
    assert code == 0
    result = report["result"]
    assert result["beta"] == pytest.approx(0.5, rel=1e-9)
    assert result["fund0_mean"] == pytest.approx(1.1, rel=1e-12)
    assert result["fund1_mean"] == pytest.approx(1.14, rel=1e-12)
    assert list(result["residual_per_outcome"]) == ["up", "down"]
    assert result["max_abs_residual"] <= 1e-12


def test_capm_command_explicit_funds(capsys, m3_path):
    code, report = run_json(capsys, ["capm", "--model", m3_path, "--rho", "1.12",
                                     "--rho0", "1.05", "--rho1", "1.20"])
    assert code == 0
    assert report["result"]["max_abs_residual"] <= 1e-8


def test_capm_fund_flags_must_pair(m3_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["capm", "--model", m3_path, "--rho", "1.12", "--rho0", "1.05"])
    assert excinfo.value.code == 2


def test_capm_fund_targets_must_differ(m3_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["capm", "--model", m3_path, "--rho", "1.12",
                  "--rho0", "1.05", "--rho1", "1.05"])
    assert excinfo.value.code == 2


def test_capm_without_riskless_needs_explicit_funds(capsys, m3_path):
    code = cli.main(["capm", "--model", m3_path, "--rho", "1.12"])
    assert code == 2
    err = capsys.readouterr().err
    assert "rho0" in err


def test_arbitrage_command_measure(capsys, m1_path):
    code, report = run_json(capsys, ["arbitrage", "--model", m1_path])
    assert code == 0
    result = report["result"]
    assert result["outcome"] == "pricing_measure"
    assert result["implied_return"] == pytest.approx(1.1, rel=1e-12)
    assert result["state_prices"]["up"] == pytest.approx(5.0 / 11.0, rel=1e-12)
    assert result["verification"]["passed"] is True


def test_arbitrage_command_certificate(capsys, m2_path):
    code, report = run_json(capsys, ["arbitrage", "--model", m2_path])
    assert code == 0
    result = report["result"]
    assert result["outcome"] == "arbitrage"
    assert result["cost"] < 0.0
    assert result["verification"]["passed"] is True
    names = [c["name"] for c in result["verification"]["checks"]]
    assert "portfolio cost is negative" in names


def test_measure_command_success(capsys, m1_path):
    code, report = run_json(capsys, ["measure", "--model", m1_path])
    assert code == 0
    assert report["result"]["outcome"] == "pricing_measure"


def test_measure_command_fails_on_arbitrage(capsys, m2_path):
    code = cli.main(["measure", "--model", m2_path])
    captured = capsys.readouterr()
    assert code == 3
    assert "arbitrage exists" in captured.err
    assert captured.out == ""


def test_missing_model_file_is_validation_error(capsys, tmp_path):
    code = cli.main(["check", "--model", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_market_is_validation_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "instruments": ["a"], "prices": [1.0],
        "probabilities": [0.6, 0.5], "payoffs": [[1.0, 1.1]],
    }))
    code = cli.main(["check", "--model", str(path)])
    assert code == 2
    assert "sum to 1.1" in capsys.readouterr().err


def test_unknown_document_key_is_named(capsys, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({
        "instruments": ["a"], "prices": [1.0], "probabilities": [1.0],
        "payoffs": [[1.0]], "fees": 0.01,
    }))
    code = cli.main(["check", "--model", str(path)])
    assert code == 2
    assert "fees" in capsys.readouterr().err


@pytest.mark.parametrize("price, message", [
    ('"1.0"', "prices is not numeric"),
    ("1" + "0" * 400, "prices holds a number beyond the float range"),
], ids=["string", "401-digit-integer"])
def test_non_numeric_price_exits_2_with_one_line_error(capsys, tmp_path, price, message):
    path = tmp_path / "prices.json"
    path.write_text('{"instruments": ["a", "b"], "prices": [%s, 1.0], '
                    '"probabilities": [1.0], "payoffs": [[1.0], [1.0]]}' % price)
    code = cli.main(["check", "--model", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert len(captured.err.splitlines()) == 1


def test_degenerate_frontier_request_exits_2(capsys, m2_path):
    code = cli.main(["frontier", "--model", m2_path, "--rho", "1.05"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_json_output_round_trips_bitwise(capsys, m1_path):
    _, report = run_json(capsys, ["arbitrage", "--model", m1_path])
    result = report["result"]
    reloaded = json.loads(json.dumps(report))
    assert reloaded == report
    measure = check_arbitrage(market_m1())
    assert result["mass"] == measure.mass
    assert result["implied_return"] == measure.implied_return
    assert result["residual_norm"] == measure.residual_norm


@pytest.mark.parametrize("argv", [
    ["frontier", "--rho", "nan"],
    ["frontier", "--rho", "inf"],
    ["capm", "--rho", "1.12", "--rho0", "nan", "--rho1", "1.2"],
    ["capm", "--rho", "1.12", "--rho0", "1.05", "--rho1=-inf"],
    ["arbitrage", "--tol", "-1"],
    ["arbitrage", "--tol", "nan"],
    ["measure", "--tol", "inf"],
    ["check", "--tol", "0"],
])
def test_non_finite_flags_exit_2_with_one_line_error(capsys, m1_path, argv):
    code = cli.main(argv + ["--model", m1_path, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --")
    assert len(captured.err.splitlines()) == 1

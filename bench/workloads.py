"""Seeded inputs, operations and output checks of the four workloads.

Every workload is a list of operations, a *round*, that one closed-loop
caller repeats. Each operation calls the package's public API, through the
``oneperiod`` namespace so that the tracer's wrappers are seen, and
comes with a check that compares its output with a computation made here,
apart from the package (a bordered KKT solve, planted state prices, plain
matrix arithmetic), or with a property the method must have.

Market shapes are chosen so that one operation of a workload takes about
the same time on every seed: each workload uses several markets of one
shape. The one exception is the ``arbitrage`` workload's fixed market (see
``F1_SEED``), which fails on every run and is counted as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oneperiod
import oneperiod.cli

#: relative agreement required between the package and the independent oracles
ORACLE_RTOL = 1e-9
#: bound on the pointwise residual of the realized-return identity
RESIDUAL_BOUND = 1e-9
#: unit-cost and target-mean checks on realized portfolios
PORTFOLIO_TOL = 1e-9
#: the package's default arbitrage tolerance, restated for the re-checks
ARB_TOL = 1e-9
#: fault F1 shows on the planted market ``random_planted_market(rng(0), 200, 8000)``
#: of the test suite: check_arbitrage returns a certificate that fails
#: verification. That market is rebuilt here from this fixed seed, so the
#: failure does not depend on ``--seed``.
F1_SEED = 0
#: payoff unit of the seeded arbitrage markets. F1 also reaches them at scale 1:
#: nnls stops once every dual component is below 1e-10 * max|X'x| (about 2e-9
#: at 16 instruments with payoffs near 1), and a clone market's certificate,
#: whose exact payoff is zero in every outcome, then misses the payoff floor of
#: 1e-9 * max(1, max|X|) on some seeds (2 of 300 at 16 x 64000, 1 of 300 at
#: 16 x 128000). Halving the unit scales max|X'x| by a quarter, below the
#: floor, so the failed count does not depend on the seed; the fixed F1
#: market still shows the fault.
ARB_UNIT = 0.5


@dataclass(frozen=True)
class Shapes:
    """Market shapes (instruments, outcomes) and market counts per workload."""

    frontier: tuple[int, int] = (200, 8000)
    frontier_markets: int = 4
    riskless: tuple[int, int] = (12, 1500)
    riskless_markets: int = 3
    arbitrage: tuple[int, int] = (16, 128000)
    arbitrage_markets: int = 4          # of each kind: planted and clone
    arbitrage_f1: tuple[int, int] = (200, 8000)
    cli: tuple[int, int] = (10, 4000)
    cli_markets: int = 3


FULL = Shapes()
SMOKE = Shapes(frontier=(3, 8), frontier_markets=2, riskless=(3, 8), riskless_markets=2,
               arbitrage=(3, 8), arbitrage_markets=2, arbitrage_f1=(4, 10),
               cli=(3, 8), cli_markets=1)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` returns None or a reason."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_fault: str | None = None


# -- generators ------------------------------------------------------------------

def _probabilities(rng, k: int) -> np.ndarray:
    p = rng.uniform(0.2, 1.0, size=k)
    return p / p.sum()


def _market(prices, payoffs, probabilities) -> oneperiod.Market:
    names = tuple(f"a{i}" for i in range(len(prices)))
    return oneperiod.Market(instruments=names, prices=prices, payoffs=payoffs,
                            probabilities=probabilities)


def planted_market(rng, n: int, k: int, riskless: bool = False, unit: float = 1.0):
    """Arbitrage-free market priced by planted state prices ``q > 0``.

    Payoffs are uniform on [0.5, 1.5] times ``unit``; ``sum(q) = 1/R`` with R
    uniform on [1.01, 1.05], so prices are near ``unit``. With ``riskless``
    the first instrument pays one constant in every outcome, which makes the
    covariance singular and its gross return ``1/sum(q)``.
    Returns ``(market, q)``.
    """
    payoffs = rng.uniform(0.5, 1.5, size=(n, k))
    payoffs *= unit
    if riskless:
        payoffs[0, :] = unit * rng.uniform(1.0, 1.3)
    q = rng.uniform(0.1, 1.0, size=k)
    q /= rng.uniform(1.01, 1.05) * q.sum()
    return _market(payoffs @ q, payoffs, _probabilities(rng, k)), q


def clone_market(rng, n: int, k: int, unit: float = 1.0) -> oneperiod.Market:
    """Planted market of n-1 instruments plus a copy of one at a 1-10% markup."""
    base, _ = planted_market(rng, n - 1, k, unit=unit)
    i = int(rng.integers(0, n - 1))
    markup = 1.0 + rng.uniform(0.01, 0.10)
    return _market(np.append(base.prices, markup * base.prices[i]),
                   np.vstack([base.payoffs, base.payoffs[i]]), base.probabilities)


def f1_market(n: int, k: int) -> oneperiod.Market:
    """The test suite's ``random_planted_market`` at a fixed seed (fault F1)."""
    rng = np.random.default_rng(F1_SEED)
    payoffs = rng.uniform(0.5, 1.5, size=(n, k))
    planted = rng.uniform(0.1, 1.0, size=k)
    return _market(payoffs @ planted, payoffs, _probabilities(rng, k))


# -- independent arithmetic ------------------------------------------------------

def centred_covariance(payoffs, probabilities):
    """Mean payoff and covariance ``W W'`` with ``W = (X - E[X]) diag(sqrt(p))``."""
    mean = payoffs @ probabilities
    w = (payoffs - mean[:, None]) * np.sqrt(probabilities)
    return mean, w @ w.T


def kkt_frontier(prices, mean, cov, rho: float):
    """Bordered KKT solve of min xi'V xi s.t. xi'x = 1, xi'm = rho.

    Returns ``(xi, variance, lam, mu)`` with ``V xi = lam x + mu m``.
    """
    n = prices.size
    kkt = np.zeros((n + 2, n + 2))
    kkt[:n, :n] = cov
    kkt[:n, n] = kkt[n, :n] = prices
    kkt[:n, n + 1] = kkt[n + 1, :n] = mean
    rhs = np.zeros(n + 2)
    rhs[n] = 1.0
    rhs[n + 1] = rho
    sol = np.linalg.solve(kkt, rhs)
    xi = sol[:n]
    return xi, float(xi @ cov @ xi), -float(sol[n]), -float(sol[n + 1])


def _rel_gap(actual, expected) -> float:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(1.0, float(np.abs(expected).max()))
    return float(np.abs(actual - expected).max()) / scale


def _first(*reasons):
    return next((r for r in reasons if r), None)


def _close(what: str, actual, expected, rtol: float = ORACLE_RTOL):
    gap = _rel_gap(actual, expected)
    if not gap <= rtol:
        return f"{what}: relative gap {gap:.3e} exceeds {rtol:.0e}"
    return None


def _portfolio_reason(what: str, xi, prices, mean, rho: float):
    cost = float(np.asarray(xi) @ prices)
    if not abs(cost - 1.0) <= PORTFOLIO_TOL:
        return f"{what}: cost {cost!r} is not 1"
    got = float(np.asarray(xi) @ mean)
    if not abs(got - rho) <= PORTFOLIO_TOL * max(1.0, abs(rho)):
        return f"{what}: mean {got!r} is not the target {rho!r}"
    return None


def _identity_reason(report, beta_expected: float):
    if not abs(report.beta - beta_expected) <= ORACLE_RTOL * max(1.0, abs(beta_expected)):
        return f"identity beta {report.beta!r} is not {beta_expected!r}"
    worst = float(np.abs(report.residual_per_outcome).max())
    if not (worst <= RESIDUAL_BOUND and report.max_abs_residual <= RESIDUAL_BOUND):
        return f"pointwise residual {worst!r} exceeds {RESIDUAL_BOUND}"
    return None


# -- frontier ----------------------------------------------------------------------

def frontier_ops(rng, shapes: Shapes, workdir) -> list[Op]:
    n, k = shapes.frontier
    ops = []
    for i in range(shapes.frontier_markets):
        market, _ = planted_market(rng, n, k)
        mean, cov = centred_covariance(market.payoffs, market.probabilities)
        rho0 = float(np.median(mean / market.prices))
        targets = (rho0, rho0 + rng.uniform(0.01, 0.03), rho0 + rng.uniform(0.03, 0.06))
        oracle = [kkt_frontier(market.prices, mean, cov, rho) for rho in targets]
        ops.append(Op(f"frontier[{i}]", _frontier_run(market, targets),
                      _frontier_check(market, mean, targets, oracle)))
    return ops


def _frontier_run(market, targets):
    rho0, rho1, rho = targets

    def run():
        fund0 = oneperiod.efficient_portfolio(market, rho0)
        fund1 = oneperiod.efficient_portfolio(market, rho1)
        candidate = oneperiod.efficient_portfolio(market, rho)
        beta, composed = oneperiod.two_fund_compose(market, fund0, fund1, rho)
        report = oneperiod.verify_realized_identity(market, candidate.portfolio,
                                                    fund0.portfolio, fund1.portfolio)
        return (fund0, fund1, candidate), beta, composed, report
    return run


def _frontier_check(market, mean, targets, oracle):
    rho0, rho1, rho = targets
    beta_expected = (rho - rho0) / (rho1 - rho0)

    def check(result):
        solutions, beta, composed, report = result
        for sol, target, (xi, variance, lam, mu) in zip(solutions, targets, oracle):
            reason = _first(
                None if sol.mode == "nonsingular" else f"mode {sol.mode!r}",
                _close(f"portfolio at {target!r}", sol.portfolio, xi),
                _close(f"variance at {target!r}", sol.variance / variance, 1.0),
                _close(f"lambda at {target!r}", sol.lam, lam, 1e-7),
                _close(f"mu at {target!r}", sol.mu, mu, 1e-7),
                _portfolio_reason(f"portfolio at {target!r}", sol.portfolio,
                                  market.prices, mean, target))
            if reason:
                return reason
        return _first(
            _close("composition beta", beta, beta_expected, 1e-12),
            _close("composed portfolio", composed, oracle[2][0]),
            _portfolio_reason("composed portfolio", composed, market.prices, mean, rho),
            _identity_reason(report, beta_expected))
    return check


# -- riskless ------------------------------------------------------------------------

def riskless_ops(rng, shapes: Shapes, workdir) -> list[Op]:
    n, k = shapes.riskless
    ops = []
    for i in range(shapes.riskless_markets):
        market, q = planted_market(rng, n, k, riskless=True)
        gross = 1.0 / q.sum()
        mean, cov = centred_covariance(market.payoffs, market.probabilities)
        # The riskless instrument's row and column of V vanish, so V+ e is the
        # inverse of the remaining block applied to the rest of e.
        excess = mean - gross * market.prices
        direction = np.concatenate(([0.0], np.linalg.solve(cov[1:, 1:], excess[1:])))
        h = float(excess @ direction)
        tangency_mean = float(mean @ direction) / float(market.prices @ direction)
        rho = gross + rng.uniform(0.3, 1.7) * (tangency_mean - gross)
        ops.append(Op(f"riskless[{i}]", _riskless_run(market, rho),
                      _riskless_check(market, mean, gross, h, tangency_mean, rho)))
    return ops


def _riskless_run(market, rho):
    # The analysis `oneperiod capm` runs without --rho0/--rho1.
    def run():
        info = oneperiod.find_riskless(market)
        rho1 = oneperiod.realized_return(market, info.tangency).mean
        fund0 = oneperiod.efficient_portfolio(market, info.gross_return)
        fund1 = oneperiod.efficient_portfolio(market, rho1)
        candidate = oneperiod.efficient_portfolio(market, rho)
        report = oneperiod.verify_realized_identity(market, candidate.portfolio,
                                                    fund0.portfolio, fund1.portfolio)
        return info, rho1, (fund0, fund1, candidate), report
    return run


def _riskless_check(market, mean, gross, h, tangency_mean, rho):
    def check(result):
        info, rho1, solutions, report = result
        payoff = info.portfolio @ market.payoffs
        reason = _first(
            _close("gross return", info.gross_return, gross),
            _close("riskless payoff", payoff, np.full_like(payoff, gross)),
            _portfolio_reason("riskless portfolio", info.portfolio, market.prices, mean, gross),
            _close("tangency mean", rho1, tangency_mean, 1e-8),
            _portfolio_reason("tangency fund", info.tangency, market.prices, mean, rho1))
        if reason:
            return reason
        for sol, target in zip(solutions, (info.gross_return, rho1, rho)):
            variance = (target - gross) ** 2 / h
            reason = _first(
                None if sol.mode == "riskless_route" else f"mode {sol.mode!r}",
                _portfolio_reason(f"portfolio at {target!r}", sol.portfolio,
                                  market.prices, mean, target),
                None if abs(sol.variance - variance) <= 1e-8 * variance + 1e-15
                else f"variance at {target!r} is {sol.variance!r}, not {variance!r}")
            if reason:
                return reason
        return _identity_reason(report, (rho - gross) / (rho1 - gross))
    return check


# -- arbitrage -------------------------------------------------------------------------

def arbitrage_ops(rng, shapes: Shapes, workdir) -> list[Op]:
    n, k = shapes.arbitrage
    ops = []
    for i in range(shapes.arbitrage_markets):
        market, _ = planted_market(rng, n, k, unit=ARB_UNIT)
        ops.append(Op(f"planted[{i}]", _arbitrage_run(market), _measure_check(market)))
        market = clone_market(rng, n, k, unit=ARB_UNIT)
        ops.append(Op(f"clone[{i}]", _arbitrage_run(market), _certificate_check(market)))
    market = f1_market(*shapes.arbitrage_f1)
    ops.append(Op("planted[F1]", _arbitrage_run(market), _measure_check(market),
                  known_fault="F1"))
    return ops


def _arbitrage_run(market):
    def run():
        outcome = oneperiod.check_arbitrage(market)
        verification = oneperiod.verify_certificate(market, outcome)
        consistency = None
        if isinstance(outcome, oneperiod.PricingMeasure):
            consistency = oneperiod.risk_neutral_consistency(market, outcome)
        return outcome, verification, consistency
    return run


def measure_reason(payoffs, prices, state_prices, risk_neutral, mass, implied_return):
    """Re-check a pricing measure with plain arithmetic; None when it holds."""
    q = np.asarray(state_prices, dtype=float)
    if not q.min() >= 0.0:
        return f"negative state price {q.min()!r}"
    residual = float(np.linalg.norm(payoffs @ q - prices))
    if not residual <= ARB_TOL * max(1.0, float(np.linalg.norm(prices))):
        return f"state prices miss the prices by {residual!r}"
    if not abs(float(np.sum(risk_neutral)) - 1.0) <= 1e-12:
        return "risk-neutral weights do not sum to one"
    if not abs(implied_return * mass - 1.0) <= 1e-12:
        return "implied return is not the reciprocal mass"
    return _close("E_Q[payoff] vs R * price", payoffs @ np.asarray(risk_neutral, dtype=float),
                  implied_return * prices, 1e-8)


def _measure_check(market):
    def check(result):
        outcome, verification, consistency = result
        if not isinstance(outcome, oneperiod.PricingMeasure):
            return f"arbitrage-free market gave {type(outcome).__name__}"
        if not (verification.passed and consistency.passed):
            return "the package's own verification failed"
        return measure_reason(market.payoffs, market.prices, outcome.state_prices,
                              outcome.risk_neutral, outcome.mass, outcome.implied_return)
    return check


def _certificate_check(market):
    def check(result):
        outcome, verification, _ = result
        if not isinstance(outcome, oneperiod.ArbitrageCertificate):
            return f"market with a marked-up clone gave {type(outcome).__name__}"
        if not verification.passed:
            return "the package's own verification failed"
        xi = np.asarray(outcome.portfolio, dtype=float)
        cost = float(xi @ market.prices)
        worst = float((xi @ market.payoffs).min())
        floor = ARB_TOL * max(1.0, float(np.abs(market.payoffs).max()))
        if not (cost < 0.0 and worst >= -floor):
            return f"certificate cost {cost!r}, worst payoff {worst!r}"
        return _close("reported cost and worst payoff", [outcome.cost, outcome.worst_payoff],
                      [cost, worst], 1e-12)
    return check


# -- cli -------------------------------------------------------------------------------

_NUMBER = re.compile(r"-?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def json_numbers(value, out: list) -> list:
    """Every number in a parsed JSON document, in document order."""
    if isinstance(value, dict):
        for item in value.values():
            json_numbers(item, out)
    elif isinstance(value, list):
        for item in value:
            json_numbers(item, out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out.append(float(value))
    return out


def text_numbers(text: str) -> list[str]:
    """Every number token of a text report, in order (values only, not keys)."""
    out = []
    for line in text.splitlines():
        value = line.split(": ", 1)[1] if ": " in line else line.strip()
        tokens = value[1:-1].split(", ") if value.startswith("[") else [value]
        out.extend(t for t in tokens if _NUMBER.fullmatch(t))
    return out


def write_market(market, path) -> None:
    """Write ``market`` in the CLI's market-file format."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"instruments": list(market.instruments),
                   "prices": market.prices.tolist(),
                   "probabilities": market.probabilities.tolist(),
                   "payoffs": market.payoffs.tolist()}, fh)


def cli_call(argv):
    """``oneperiod.cli.main(argv)`` with its output captured: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = oneperiod.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_ops(rng, shapes: Shapes, workdir) -> list[Op]:
    n, k = shapes.cli
    ops = []
    for i in range(shapes.cli_markets):
        market, _ = planted_market(rng, n, k)
        path = os.path.join(workdir, f"market{i}.json")
        write_market(market, path)
        ops.append(_cli_session(i, path, rng))
    return ops


def _cli_session(i, path, rng) -> Op:
    """Every command on one market file, JSON then text: one operation.

    The commands differ in cost by up to 2x, so timing them one by one would
    put the median between modes; a session has one.
    """
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    prices = np.array(document["prices"])
    payoffs = np.array(document["payoffs"])
    probabilities = np.array(document["probabilities"])
    mean, cov = centred_covariance(payoffs, probabilities)
    rho0 = float(np.median(mean / prices))
    rho1 = rho0 + rng.uniform(0.01, 0.03)
    rho = rho0 + rng.uniform(0.03, 0.06)
    context = {
        "instruments": document["instruments"], "prices": prices, "payoffs": payoffs,
        "probabilities": probabilities, "mean": mean, "cov": cov,
        "second": (payoffs * probabilities) @ payoffs.T,
        "rho": rho, "rho0": rho0, "rho1": rho1,
        "kkt": {r: kkt_frontier(prices, mean, cov, r) for r in (rho, rho0, rho1)},
    }
    commands = {
        "check": [],
        "frontier": ["--rho", repr(rho)],
        "capm": ["--rho", repr(rho), "--rho0", repr(rho0), "--rho1", repr(rho1)],
        "arbitrage": [],
        "measure": [],
    }
    argvs = [[command, "--model", path, *extra, "--format", fmt]
             for command, extra in commands.items() for fmt in ("json", "text")]

    def run():
        return [cli_call(argv) for argv in argvs]

    def check(results):
        for command, json_result, text_result in zip(commands, results[::2], results[1::2]):
            numbers, reason = _cli_json_numbers(command, context, json_result)
            reason = reason or _cli_text_reason(numbers, text_result)
            if reason:
                return f"{command}: {reason}"
        return None

    return Op(f"cli[{i}]", run, check)


def _cli_json_numbers(command, ctx, result):
    """The JSON report's numbers, and the reason it is wrong (None when right)."""
    code, out, err = result
    if code != 0:
        return None, f"exit {code}: {err.strip()}"
    try:
        doc = json.loads(out, parse_constant=_reject_constant)
    except ValueError as exc:
        return None, f"report is not strict JSON: {exc}"
    if doc.get("command") != command:
        return None, f"report names command {doc.get('command')!r}"
    return json_numbers(doc, []), _CLI_RESULT_CHECKS[command](doc["result"], ctx)


def _cli_text_reason(expected, result):
    """Every number of the text report must equal the JSON one bit for bit."""
    code, out, err = result
    if code != 0:
        return f"text exit {code}: {err.strip()}"
    got = text_numbers(out)
    if len(got) != len(expected):
        return f"text report has {len(got)} numbers, JSON has {len(expected)}"
    for token, value in zip(got, expected):
        if float(token).hex() != value.hex() or token != repr(value):
            return f"text number {token} differs from JSON {value!r}"
    return None


def _vector(labelled: dict, names) -> np.ndarray:
    return np.array([labelled[name] for name in names])


def _cli_check_result(res, ctx):
    names = ctx["instruments"]

    def matrix(key):
        return np.array([_vector(res[key][a], names) for a in names])

    scale = max(1.0, float(np.abs(ctx["second"]).max()))
    probabilities = list(res["probabilities"].values())
    return _first(
        None if res["valid"] is True and res["instruments"] == names else "header fields",
        None if probabilities == ctx["probabilities"].tolist() else "probabilities differ",
        _close("mean payoff", _vector(res["mean_payoff"], names), ctx["mean"], 1e-12),
        _close("second moment", matrix("second_moment"), ctx["second"], 1e-12),
        _close("covariance", matrix("covariance") / scale, ctx["cov"] / scale, 1e-12))


def _cli_frontier_result(res, ctx):
    xi, variance, lam, mu = ctx["kkt"][ctx["rho"]]
    return _first(
        None if res["mode"] == "nonsingular" else f"mode {res['mode']!r}",
        None if res["target_mean"] == ctx["rho"] else "target mean differs",
        _close("portfolio", _vector(res["portfolio"], ctx["instruments"]), xi),
        _close("variance", res["variance"] / variance, 1.0),
        _close("lambda", res["lambda"], lam, 1e-7),
        _close("mu", res["mu"], mu, 1e-7))


def _cli_capm_result(res, ctx):
    names = ctx["instruments"]
    rho, rho0, rho1 = ctx["rho"], ctx["rho0"], ctx["rho1"]
    beta = (rho - rho0) / (rho1 - rho0)
    worst = max(abs(v) for v in res["residual_per_outcome"].values())
    reason = _first(
        None if (res["target_mean"], res["fund0_mean"], res["fund1_mean"]) == (rho, rho0, rho1)
        else "fund targets differ",
        _close("beta", res["beta"], beta),
        None if max(worst, res["max_abs_residual"], res["expectation_gap"]) <= RESIDUAL_BOUND
        else f"pointwise residual {worst!r} exceeds {RESIDUAL_BOUND}")
    for key, target in (("portfolio", rho), ("fund0", rho0), ("fund1", rho1)):
        reason = reason or _close(key, _vector(res[key], names), ctx["kkt"][target][0])
    return reason


def _cli_measure_result(res, ctx):
    if res.get("outcome") != "pricing_measure":
        return f"arbitrage-free market gave outcome {res.get('outcome')!r}"
    if res["verification"]["passed"] is not True:
        return "the report's verification failed"
    return measure_reason(ctx["payoffs"], ctx["prices"],
                          list(res["state_prices"].values()),
                          list(res["risk_neutral"].values()),
                          res["mass"], res["implied_return"])


_CLI_RESULT_CHECKS = {
    "check": _cli_check_result,
    "frontier": _cli_frontier_result,
    "capm": _cli_capm_result,
    "arbitrage": _cli_measure_result,
    "measure": _cli_measure_result,
}


WORKLOADS = {
    "frontier": frontier_ops,
    "riskless": riskless_ops,
    "arbitrage": arbitrage_ops,
    "cli": cli_ops,
}

"""Command-line front end.

Loads a market JSON file, runs one of the analyses and prints a report in
text or JSON form. The JSON report is ``{command, model, tolerance, result}``;
text mode prints the same values (floats via ``repr``, so the two modes agree
bit-for-bit on every number).

Exit codes: 0 success, 2 validation/input error, 3 when ``measure`` finds
arbitrage, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

from .arbitrage import (DEFAULT_TOLERANCE, ArbitrageCertificate, CheckReport,
                        check_arbitrage, verify_certificate)
from .capm import verify_realized_identity
from .errors import ConvergenceError, ModelError, ValidationError
from .frontier import _efficient, _find_riskless, efficient_portfolio
from .market import Market, Moments, load_market, moments, realized_return

COMMANDS = ("check", "frontier", "capm", "arbitrage", "measure")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oneperiod",
        description="Analyze a one-period market model from a JSON market file.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True, help="path to the market JSON file")
    common.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                        help="tolerance of the arbitrage and measure commands; the other "
                             f"commands only echo it in the report (default {DEFAULT_TOLERANCE!r})")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        dest="output_format", help="report format (default text)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[common],
                   help="validate the market and print its moments")
    frontier = sub.add_parser("frontier", parents=[common],
                              help="efficient portfolio at a target expected return")
    frontier.add_argument("--rho", type=float, required=True,
                          help="target expected realized return")
    capm = sub.add_parser("capm", parents=[common],
                          help="pointwise CAPM identity for efficient funds")
    capm.add_argument("--rho", type=float, required=True,
                      help="target expected realized return of the tested portfolio")
    capm.add_argument("--rho0", type=float, default=None,
                      help="target mean of fund 0 (default: riskless return)")
    capm.add_argument("--rho1", type=float, default=None,
                      help="target mean of fund 1 (default: tangency-fund mean)")
    sub.add_parser("arbitrage", parents=[common],
                   help="pricing measure or arbitrage certificate, with verification")
    sub.add_parser("measure", parents=[common],
                   help="pricing measure only; fails with exit 3 if arbitrage exists")
    return parser


def parse_config(argv=None) -> argparse.Namespace:
    parser = build_parser()
    ns = parser.parse_args(argv)
    rho = getattr(ns, "rho", None)
    rho0 = getattr(ns, "rho0", None)
    rho1 = getattr(ns, "rho1", None)
    if (rho0 is None) != (rho1 is None):
        parser.error("--rho0 and --rho1 must be given together")
    if rho0 is not None and rho0 == rho1:
        parser.error("--rho0 and --rho1 must differ")
    for flag, value in (("--rho", rho), ("--rho0", rho0), ("--rho1", rho1)):
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{flag} must be a finite number, got {value!r}")
    if not (math.isfinite(ns.tol) and ns.tol > 0.0):
        raise ValidationError(f"--tol must be finite and positive, got {ns.tol!r}")
    return ns


def run(args: argparse.Namespace) -> int:
    """Execute one command and print its report; returns the exit status."""
    market = load_market(args.model)
    builder = {
        "check": _run_check,
        "frontier": _run_frontier,
        "capm": _run_capm,
        "arbitrage": _arbitrage_result,
        "measure": _run_measure,
    }[args.command]
    result = builder(market, args)
    if result is None:  # measure found arbitrage; diagnostic already printed
        return 3
    report = {
        "command": args.command,
        "model": args.model,
        "tolerance": args.tol,
        "result": result,
    }
    if args.output_format == "json":
        print(json.dumps(report, indent=2, allow_nan=False))
    else:
        print(_render_text(report), end="")
    return 0


def main(argv=None) -> int:
    try:
        return run(parse_config(argv))
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 1


def console_entry() -> None:
    raise SystemExit(main())


# -- report builders ---------------------------------------------------------

def _outcome_names(market: Market) -> tuple[str, ...]:
    if market.outcome_labels is not None:
        return market.outcome_labels
    return tuple(f"outcome_{i}" for i in range(market.n_outcomes))


def _labeled(names, values) -> dict:
    return {name: float(v) for name, v in zip(names, values)}


def _run_check(market: Market, args: argparse.Namespace) -> dict:
    mm = moments(market)
    names = market.instruments
    return {
        "valid": True,
        "instruments": list(names),
        "outcomes": list(_outcome_names(market)),
        "probabilities": _labeled(_outcome_names(market), market.probabilities),
        "mean_payoff": _labeled(names, mm.mean),
        "second_moment": {name: _labeled(names, row)
                          for name, row in zip(names, mm.second_moment)},
        "covariance": {name: _labeled(names, row)
                       for name, row in zip(names, mm.covariance)},
    }


def _run_frontier(market: Market, args: argparse.Namespace) -> dict:
    solution = efficient_portfolio(market, args.rho)
    return {
        "mode": solution.mode,
        "target_mean": solution.target_mean,
        "variance": solution.variance,
        "lambda": solution.lam,
        "mu": solution.mu,
        "portfolio": _labeled(market.instruments, solution.portfolio),
    }


def _fund_targets(market: Market, mm: Moments,
                  args: argparse.Namespace) -> tuple[float, float]:
    if args.rho0 is not None:
        return args.rho0, args.rho1
    info = _find_riskless(market, mm)
    if info is None:
        raise ValidationError(
            "market has no riskless portfolio to infer fund targets from; "
            "pass --rho0 and --rho1 explicitly")
    if info.tangency is None:
        raise ValidationError(
            "the tangency fund is degenerate, so default fund targets are undefined; "
            "pass --rho0 and --rho1 explicitly")
    return info.gross_return, realized_return(market, info.tangency).mean


def _run_capm(market: Market, args: argparse.Namespace) -> dict:
    mm = moments(market)
    rho0, rho1 = _fund_targets(market, mm, args)
    candidate = _efficient(market, mm, args.rho)
    fund0 = _efficient(market, mm, rho0)
    fund1 = _efficient(market, mm, rho1)
    report = verify_realized_identity(market, candidate.portfolio,
                                      fund0.portfolio, fund1.portfolio)
    return {
        "beta": report.beta,
        "target_mean": float(args.rho),
        "fund0_mean": float(rho0),
        "fund1_mean": float(rho1),
        "portfolio": _labeled(market.instruments, candidate.portfolio),
        "fund0": _labeled(market.instruments, fund0.portfolio),
        "fund1": _labeled(market.instruments, fund1.portfolio),
        "residual_per_outcome": _labeled(_outcome_names(market),
                                         report.residual_per_outcome),
        "max_abs_residual": report.max_abs_residual,
        "expectation_gap": report.expectation_gap,
    }


def _check_report_dict(report: CheckReport) -> dict:
    return {
        "passed": bool(report.passed),
        "checks": [{"name": c.name, "passed": bool(c.passed), "slack": float(c.slack)}
                   for c in report.checks],
    }


def _arbitrage_result(market: Market, args: argparse.Namespace) -> dict:
    outcome = check_arbitrage(market, tol=args.tol)
    verification = verify_certificate(market, outcome, tol=args.tol)
    names = _outcome_names(market)
    if isinstance(outcome, ArbitrageCertificate):
        return {
            "outcome": "arbitrage",
            "portfolio": _labeled(market.instruments, outcome.portfolio),
            "cost": outcome.cost,
            "worst_payoff": outcome.worst_payoff,
            "verification": _check_report_dict(verification),
        }
    return {
        "outcome": "pricing_measure",
        "state_prices": _labeled(names, outcome.state_prices),
        "risk_neutral": _labeled(names, outcome.risk_neutral),
        "mass": outcome.mass,
        "implied_return": outcome.implied_return,
        "strictly_positive": bool(outcome.strictly_positive),
        "near_boundary": bool(outcome.near_boundary),
        "residual_norm": outcome.residual_norm,
        "verification": _check_report_dict(verification),
    }


def _run_measure(market: Market, args: argparse.Namespace):
    result = _arbitrage_result(market, args)
    if result["outcome"] == "arbitrage":
        print(f"error: arbitrage exists in '{args.model}'; "
              "no pricing measure is available", file=sys.stderr)
        return None
    return result


# -- text rendering -----------------------------------------------------------

def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _walk(value, indent: int, lines: list) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}{key}:")
                _walk(item, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {_format_scalar(item)}")
    elif isinstance(value, list):
        if all(not isinstance(item, (dict, list)) for item in value):
            lines.append(f"{pad}[{', '.join(_format_scalar(v) for v in value)}]")
        else:
            for item in value:
                lines.append(f"{pad}-")
                _walk(item, indent + 1, lines)
    else:
        lines.append(f"{pad}{_format_scalar(value)}")


def _render_text(report: dict) -> str:
    lines: list = []
    _walk(report, 0, lines)
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    console_entry()

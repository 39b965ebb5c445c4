"""Reference figures, measured once and recorded in README.md (not metrics).

    python3 bench/reference.py

Prints two markdown tables:

* the size ladder (2 x 2 up to 200 x 8000 instruments x outcomes): the
  median time of one call into each layer, over a few calls on one seeded
  market per rung;
* the wall time of ``python3 -m oneperiod check`` on the golden two-asset
  market M1 as a subprocess, next to the wall time of a bare interpreter and
  of one that only imports numpy, which gives numpy's share of the command.

The riskless route stops at 100 x 3000: ``null_space`` builds a k x k
matrix, 0.5 GB at k = 8000.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import run  # first: fixes the BLAS threads and puts src/ on sys.path
import numpy as np

import oneperiod
from workloads import cli_call, planted_market, write_market

LADDER = ((2, 2), (20, 200), (100, 3000), (200, 8000))
RISKLESS_MAX_OUTCOMES = 3000
CALLS = 5
SUBPROCESS_RUNS = 7


def _median_ms(fn, calls: int = CALLS) -> float:
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def ladder_rows(workdir):
    rows = []
    for n, k in LADDER:
        rng = np.random.default_rng(0)
        market, _ = planted_market(rng, n, k)
        path = os.path.join(workdir, f"ladder-{n}x{k}.json")
        write_market(market, path)
        rho = float(np.median((market.payoffs @ market.probabilities) / market.prices))
        outcome = oneperiod.check_arbitrage(market)
        row = {
            "size": f"{n} x {k}",
            "load_market": _median_ms(lambda: oneperiod.load_market(path)),
            "validate_market": _median_ms(lambda: oneperiod.validate_market(market)),
            "moments": _median_ms(lambda: oneperiod.moments(market)),
            "efficient_portfolio": (_median_ms(lambda: oneperiod.efficient_portfolio(market, rho))
                                    if n > 2 else None),
            "check_arbitrage": _median_ms(lambda: oneperiod.check_arbitrage(market)),
            "verify_certificate": _median_ms(
                lambda: oneperiod.verify_certificate(market, outcome)),
            "cli check (json)": _median_ms(
                lambda: cli_call(["check", "--model", path, "--format", "json"])),
            "find_riskless": None,
        }
        if k <= RISKLESS_MAX_OUTCOMES:
            riskless, _ = planted_market(rng, n, k, riskless=True)
            row["find_riskless"] = _median_ms(lambda: oneperiod.find_riskless(riskless))
        rows.append(row)
    return rows


def _ms(value: float) -> str:
    return f"{value:.0f}" if value >= 100 else f"{value:.3g}"


def _wall_ms(argv, env) -> float:
    times = []
    for _ in range(SUBPROCESS_RUNS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def subprocess_rows(workdir):
    path = os.path.join(workdir, "m1.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"instruments": ["bond", "stock"], "prices": [1.0, 1.0],
                   "probabilities": [0.6, 0.4], "payoffs": [[1.1, 1.1], [1.3, 0.9]],
                   "outcome_labels": ["up", "down"]}, fh)
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    return {
        "python3 -c pass": _wall_ms([sys.executable, "-c", "pass"], env),
        "python3 -c 'import numpy'": _wall_ms([sys.executable, "-c", "import numpy"], env),
        "python3 -m oneperiod check (M1)": _wall_ms(
            [sys.executable, "-m", "oneperiod", "check", "--model", path], env),
    }


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        rows = ladder_rows(workdir)
        walls = subprocess_rows(workdir)
    columns = list(rows[0])
    print("| " + " | ".join(columns) + " |")
    print("|" + "---|" * len(columns))
    for row in rows:
        cells = [row["size"]] + ["—" if row[c] is None else _ms(row[c]) for c in columns[1:]]
        print("| " + " | ".join(cells) + " |")
    print()
    print("| command | median wall ms |")
    print("|---|---|")
    for label, ms in walls.items():
        print(f"| `{label}` | {ms:.0f} |")
    bare = walls["python3 -c pass"]
    numpy_share = (walls["python3 -c 'import numpy'"] - bare) / walls[
        "python3 -m oneperiod check (M1)"]
    print(f"\nnumpy import share of `oneperiod check`: {100 * numpy_share:.0f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

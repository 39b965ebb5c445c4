"""Benchmark of the oneperiod package: one workload, in this one process.

    python3 bench/run.py --workload riskless --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout; the package is imported from
``src/`` and need not be installed. The run:

1. sets up its inputs from ``--seed`` several times (``SETUP_REPS``): market
   generation, the independent oracle computations, market files for the
   ``cli`` workload, and a warm-up round;
2. repeats whole rounds of the workload's operations, one closed-loop caller,
   until ``--seconds`` have passed, timing each operation with
   ``time.perf_counter`` and checking each output (see ``workloads.py``);
3. prints, as its last line, ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``. With ``--trace 1`` rounds alternate untraced and
under ``tracing.Tracer``; the metrics are the per-layer metrics, averaged per
operation of the traced rounds, plus the tracing overhead on the median
latency. Spans are written to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.

Exit status is 0 when every output checked out, 1 when one did not (the
result line is still printed) and 2 when the run could not start.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

#: BLAS threads, fixed before numpy loads; one is never more than ``nproc``
#: and keeps a single closed-loop caller on one core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 3
#: a percentile is reported as the tail only with this many samples beyond it
TAIL_BEYOND = 10

if not (SRC / "oneperiod" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
    sys.stderr.write(f"bench: needs BENCHMARK.json and the package source under {SRC}\n")
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import FULL, WORKLOADS, Shapes  # noqa: E402

IMPORT_S = time.perf_counter() - _START


@dataclass
class Stats:
    latencies: list = field(default_factory=list)  # seconds, operations that passed
    round_rates: list = field(default_factory=list)  # passed operations per second, per round
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)

    def record(self, op, elapsed: float, reason: str | None) -> None:
        self.attempted += 1
        if reason is None:
            self.latencies.append(elapsed)
            return
        self.failed += 1
        if op.known_fault is None:
            self.unexpected.append(f"{op.label}: {reason}")

    def merge(self, other: "Stats") -> "Stats":
        return Stats(self.latencies + other.latencies, self.round_rates + other.round_rates,
                     self.attempted + other.attempted, self.failed + other.failed,
                     self.unexpected + other.unexpected)


def run_round(ops, stats: Stats, tracer: Tracer | None = None) -> None:
    """Every operation once; records each, and the round's rate of passed operations."""
    passed_before = len(stats.latencies)
    seconds = 0.0
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        seconds += elapsed
        stats.record(op, elapsed, error or _check(op, result))
    stats.round_rates.append((len(stats.latencies) - passed_before) / seconds)


def _check(op, result) -> str | None:
    try:
        return op.check(result)
    except Exception as exc:  # an output too malformed to inspect is a wrong output
        return f"check raised {type(exc).__name__}: {exc}"


def measure(ops, seconds: float, tracer: Tracer | None = None) -> tuple[Stats, Stats]:
    """Whole rounds until ``seconds`` have passed, at least one.

    With a tracer, rounds alternate untraced and traced, so that both see the
    same drift in machine speed. Returns (untraced, traced) statistics.
    """
    base, traced = Stats(), Stats()
    deadline = time.perf_counter() + seconds
    while True:
        run_round(ops, base)
        if tracer is not None:
            with tracer:
                run_round(ops, traced, tracer)
        if time.perf_counter() >= deadline:
            return base, traced


def tail(latencies) -> tuple[float, float]:
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it: (value, level %)."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  shapes: Shapes = FULL, setup_reps: int = SETUP_REPS) -> tuple[dict, str]:
    """Set up, measure and check one workload; returns (result, summary line)."""
    build = WORKLOADS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=OUT_DIR)
    try:
        warm = Stats()
        setup_times = []
        for _ in range(setup_reps):
            ops = None  # let the previous set-up's inputs go before the next is built
            start = time.perf_counter()
            ops = build(np.random.default_rng(seed), shapes, workdir)
            run_round(ops, warm)
            setup_times.append(time.perf_counter() - start)
        tracer = Tracer() if trace else None
        base, traced = measure(ops, seconds, tracer)
        stats = base.merge(traced)
        if tracer is not None:
            tracer.dump(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = warm.unexpected + stats.unexpected
    for reason in unexpected[:10]:
        sys.stderr.write(f"bench: wrong output: {reason}\n")
    if trace:
        if not (base.latencies and traced.latencies):
            raise RuntimeError(f"no {workload} operation passed its check")
        names = metric_specs()["per_layer"]
        values = tracer.per_op()
        overhead = statistics.median(traced.latencies) / statistics.median(base.latencies)
        values["trace.overhead_pct"] = 100.0 * (overhead - 1.0)
    else:
        if not stats.latencies:
            raise RuntimeError(f"no {workload} operation passed its check")
        names = metric_specs()["end_to_end"]
        tail_s, level = tail(stats.latencies)
        values = {
            "op_p50_ms": 1e3 * statistics.median(stats.latencies),
            "op_tail_ms": 1e3 * tail_s,
            "ops_per_s": statistics.median(stats.round_rates),
            "setup_s": IMPORT_S + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        "correct": not unexpected,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in names.items()},
    }
    summary = (f"# {workload} seed={seed} trace={int(trace)}: {stats.attempted} operations, "
               f"{stats.failed} failed, {len(stats.latencies)} latency samples")
    if not trace:
        summary += f", tail = p{level:.1f}"
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    result, summary = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(summary)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

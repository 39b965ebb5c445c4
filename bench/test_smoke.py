"""Smoke check of the benchmark at the smallest market shapes.

    python3 -m pytest bench/test_smoke.py -q

The default test run collects only ``tests/``, so this adds nothing to its
time. Each workload runs briefly, traced and untraced, and must check out;
a few outputs are then broken on purpose to show that the checks see it.
"""

import math

import numpy as np
import pytest

import run
from workloads import SMOKE, WORKLOADS, measure_reason, text_numbers


def _run(workload, trace):
    result, _ = run.run_benchmark(workload, seed=3, seconds=0.2, trace=trace,
                                  shapes=SMOKE, setup_reps=1)
    return result


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_checks_out(workload, trace):
    result = _run(workload, trace)
    assert result["correct"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.metric_specs()["per_layer" if trace
                                                            else "end_to_end"])
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_traced_counts_follow_the_layers():
    frontier = {k: m["value"] for k, m in _run("frontier", True)["metrics"].items()}
    assert frontier["market.moments.calls"] == 3
    assert frontier["linalg.null_space.calls"] == 0
    assert frontier["linalg.nnls.decompositions"] == 0
    arbitrage = {k: m["value"] for k, m in _run("arbitrage", True)["metrics"].items()}
    assert arbitrage["market.moments.calls"] == 0
    assert arbitrage["linalg.nnls.calls"] == 1


def test_checks_reject_broken_outputs():
    ops = WORKLOADS["frontier"](np.random.default_rng(3), SMOKE, None)
    solutions, beta, composed, report = ops[0].run()
    assert ops[0].check((solutions, beta, composed, report)) is None
    assert ops[0].check((solutions, beta, composed * 1.001, report)) is not None

    payoffs = np.array([[1.0, 1.2], [0.9, 1.1]])
    q = np.array([0.4, 0.5])
    prices = payoffs @ q
    assert measure_reason(payoffs, prices, q, q / q.sum(), q.sum(), 1 / q.sum()) is None
    assert measure_reason(payoffs, prices + 1e-6, q, q / q.sum(), q.sum(), 1 / q.sum())

    assert text_numbers("a: 0.1\nb:\n  [1.5, x, -2e-05]\nc: name") == ["0.1", "1.5", "-2e-05"]

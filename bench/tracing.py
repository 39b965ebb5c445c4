"""Span tracing around the package's layers, installed from outside the package.

``Tracer.install()`` replaces every public function of each layer module
(``market``, ``linalg``, ``frontier``, ``capm``, ``arbitrage``; in ``cli``
only ``main``) with a timing wrapper, in every module of the package that
binds it: ``oneperiod.frontier.moments`` and ``oneperiod.market.moments``
are the same function and both get wrapped. The decompositions and solvers
of ``numpy.linalg`` are wrapped as one more layer beneath the package.

A span is recorded only while an operation is open (``begin_op`` ..
``end_op``), and a ``numpy.linalg`` span only under a package span, so the
benchmark's own checks, which run between operations and call
``numpy.linalg`` themselves, are never counted.

In ``cli`` only ``main`` is wrapped: ``run``, ``parse_config`` and
``build_parser`` are its internal steps, and ``cli.main.self_ms`` is meant
to hold all of the command line's own work (argument parsing, report
building and rendering).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("market", "linalg", "frontier", "capm", "arbitrage", "cli")
CLI_ENTRY = "main"
# Decompositions and solvers. ``norm`` is left out: it decomposes nothing, and
# the package calls it for scalar bounds in many places.
NUMPY_LINALG = ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv",
                "lstsq", "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd")
NUMPY_LAYER = "numpy.linalg"


def _output_bytes(result) -> int:
    if isinstance(result, np.ndarray):
        return result.nbytes
    if isinstance(result, tuple):
        return sum(_output_bytes(item) for item in result)
    return 0


class Tracer:
    """Records spans in memory; self time is duration minus child spans."""

    def __init__(self):
        self.spans: list[tuple] = []     # (id, parent, op, name, start, end)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.linalg_under = defaultdict(int)  # numpy.linalg calls under a span name
        self.passive_size = 0
        self.largest_output_bytes = 0
        self._stack: list[list] = []          # [span id, name, child seconds]
        self._op: int | None = None
        self._ops = 0
        self._patches: list[tuple] = []
        self._next_id = 0

    # -- operation boundaries ---------------------------------------------------

    def begin_op(self) -> None:
        self._op = self._ops

    def end_op(self) -> None:
        self._ops += 1
        self._op = None

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn, numpy_layer: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if tracer._op is None or (numpy_layer and not stack):
                return fn(*args, **kwargs)
            frame = [tracer._next_id, name, 0.0]
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                tracer.self_s[name] += duration - frame[2]
                tracer.calls[name] += 1
                tracer.spans.append((frame[0], parent, tracer._op, name, start, end))
            if numpy_layer:
                for under in {f[1] for f in stack}:
                    tracer.linalg_under[under] += 1
                tracer.largest_output_bytes = max(tracer.largest_output_bytes,
                                                  _output_bytes(result))
            elif name == "linalg.nnls":
                tracer.passive_size += int(np.count_nonzero(result.coefficients))
            return result

        return traced

    def install(self) -> None:
        package = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "oneperiod" or key.startswith("oneperiod."))]
        for layer in LAYERS:
            module = sys.modules[f"oneperiod.{layer}"]
            for attr, fn in vars(module).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or (layer == "cli" and attr != CLI_ENTRY)):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn, numpy_layer=False)
                for binder in package:
                    for bound_name, value in vars(binder).copy().items():
                        if value is fn:
                            self._patch(binder, bound_name, wrapped)
        for attr in NUMPY_LINALG:
            fn = getattr(np.linalg, attr)
            self._patch(np.linalg, attr, self._wrap(NUMPY_LAYER, fn, numpy_layer=True))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON line: id, parent, op, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def per_op(self) -> dict[str, float]:
        """Per-operation averages of the counted quantities, by metric name."""
        ops = max(self._ops, 1)
        out = {}
        for name in set(self.calls) | set(self.self_s):
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_ms"] = 1e3 * self.self_s[name] / ops
        out["linalg.nnls.passive_size"] = self.passive_size / ops
        out["linalg.nnls.decompositions"] = self.linalg_under["linalg.nnls"] / ops
        out[f"{NUMPY_LAYER}.largest_output_mb"] = self.largest_output_bytes / 2**20
        return out

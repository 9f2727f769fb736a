"""Spans around every call into evalcomb's public functions (traced runs).

A layer is one evalcomb module; its public functions are the ones its
``__all__`` names and it defines.  While installed, the tracer replaces
each such function wherever any evalcomb module binds it (``simlab``
binds ``log_esp_batch``, ``testkit`` binds ``optimize_lambda``, the
package binds nearly everything), so calls between layers nest as
spans.  Each span has a name, start and end, parent and op index; they
are kept in flat arrays and reduced when the run ends.  A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = {
    "cli": "evalcomb.cli",
    "core": "evalcomb.core",
    "sympoly": "evalcomb.sympoly",
    "betting": "evalcomb.betting",
    "testkit": "evalcomb.testkit",
    "simlab": "evalcomb.simlab",
    "ratpoly": "evalcomb._ratpoly",
}


def _esp_cells(counters: Counter, args, result) -> None:
    n = np.asarray(args[0]).size
    counters["sympoly.log_esp.cells"] += n * n


def _esp_batch_cells(counters: Counter, args, result) -> None:
    rows, n = np.shape(args[0])
    counters["sympoly.log_esp_batch.cells"] += rows * n * n


def _betting_optimum(counters: Counter, args, result) -> None:
    counters["betting.iterations"] += result.iterations
    interior = result.boundary.value == "interior" and not result.infinite_evidence
    counters["betting.interior"] += interior


# Counts taken from a span's arguments or result, after it ends.
HOOKS = {
    "sympoly.log_esp": _esp_cells,
    "sympoly.log_esp_batch": _esp_batch_cells,
    "betting.optimize_lambda": _betting_optimum,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._name = array("q")
        self._parent = array("q")
        self._op = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        # (module, attribute, function, traced wrapper) for every binding
        self._bindings = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "evalcomb" or name.startswith("evalcomb.")]
        for layer, module_name in LAYERS.items():
            module = sys.modules[module_name]
            for fname in module.__all__:
                fn = getattr(module, fname)
                if not inspect.isfunction(fn) or fn.__module__ != module_name:
                    continue
                traced = self._wrap(f"{layer}.{fname}", fn)
                self._bindings += [(m, attr, fn, traced) for m in modules
                                   for attr, value in vars(m).items() if value is fn]

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        names, parents, ops, starts, ends = self._name, self._parent, self._op, self._start, self._end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0)
            stack.append(span)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        try:
            for module, attr, _, traced in self._bindings:
                setattr(module, attr, traced)
            yield self
        finally:
            for module, attr, fn, _ in self._bindings:
                setattr(module, attr, fn)

    @property
    def spans(self) -> int:
        return len(self._name)

    def _arrays(self):
        return tuple(np.frombuffer(a, dtype=np.int64) if len(a) else np.zeros(0, np.int64)
                     for a in (self._name, self._parent, self._op, self._start, self._end))

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Self seconds, total seconds and call counts per span name."""
        name, parent, _, start, end = self._arrays()
        duration = (end - start).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=name.size)
        width = len(self.names)
        self_s = np.bincount(name, weights=duration - child, minlength=width) / 1e9
        total_s = np.bincount(name, weights=duration, minlength=width) / 1e9
        calls = np.bincount(name, minlength=width)
        return tuple({n: kind(column[k]) for k, n in enumerate(self.names)}
                     for column, kind in ((self_s, float), (total_s, float), (calls, int)))

    def write(self, path: Path) -> None:
        """All spans as tab-separated lines: op, span, parent, name, start_ns, end_ns."""
        name, parent, op, start, end = self._arrays()
        with path.open("w") as out:
            out.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for k in range(name.size):
                out.write(f"{op[k]}\t{k}\t{parent[k]}\t{self.names[name[k]]}\t{start[k]}\t{end[k]}\n")

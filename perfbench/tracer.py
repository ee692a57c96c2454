"""Spans and per-function counters recorded from outside the library.

The tracer replaces selected public functions of the multifractal modules
with timing wrappers, so calls the library makes internally (f_of_alpha
reaching solve_tau, doubling_scan reaching ball_measure) are counted too.
Nothing under src/ changes: the wrappers are installed on the module
objects at run time, and while `enabled` is false they only pass calls on.

A call made while no other wrapped call is running is a call the benchmark
made itself; it gets a span (name, start, end, parent task span, task id).
Every call, nested or not, adds to its function's call count and inclusive
busy time. Observers read arguments and results at the same boundary, so
ratios such as rows kept over candidate types are measured where the work
happens. Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []
        self._depth = 0
        self._task = None

    # task spans -----------------------------------------------------------

    def begin_task(self, task_id: int) -> None:
        self._task = (len(self.spans), task_id, time.perf_counter())
        self.spans.append(None)  # filled in by end_task

    def end_task(self) -> None:
        index, task_id, start = self._task
        self.spans[index] = ("task", start, time.perf_counter(), None, task_id)
        self._task = None

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span whose parent is the running task, if any."""
        if self._task is not None:
            self.spans.append((name, start, end, self._task[0], self._task[1]))

    # function wrappers ----------------------------------------------------

    def install(self, module, name: str, layer: str, observe=None) -> None:
        """Wrap module.name; observe(tracer, args, kwargs, result, exc)."""
        original = getattr(module, name)
        key = f"{layer}.{name}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            outer = self._depth == 0
            self._depth += 1
            start = time.perf_counter()
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                self._depth -= 1
                self.calls[key] += 1
                self.busy[key] += end - start
                if outer:
                    self.add_span(key, start, end)
                if observe is not None:
                    observe(self, args, kwargs, result, exc)

        setattr(module, name, wrapper)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [dict(zip(("id", "name", "start", "end", "parent", "task"),
                         (i,) + span))
                for i, span in enumerate(self.spans) if span is not None]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")

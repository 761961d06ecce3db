"""Spans recorded by the benchmark around its calls into mstd.

A span is ``[id, parent_id, name, start, end]`` with times from
``time.perf_counter``.  Spans stay in memory and are written once, when the
run ends, so that recording them costs no I/O inside a timed region.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records one span per phase and per call into a layer."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list = [None]

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1], name, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list):
        span[4] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(span)

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def p50(self, name: str) -> float:
        """Median duration in seconds of every span with this name."""
        durations = self.durations(name)
        if not durations:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(durations)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start": start, "end": end},
                    separators=(",", ":"),
                ) + "\n")


class NullTracer:
    """Same interface as Tracer; records nothing (the untraced runs)."""

    enabled = False
    spans: list = []

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def span(name):
        return nullcontext()

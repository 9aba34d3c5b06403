"""Timing, spans and failure accounting around the benchmark's calls.

Every call the benchmark makes into autokolm goes through
`Recorder.call`, which always measures its wall time (the end-to-end
metrics need it) and, while tracing is on, also keeps a span: name,
layer, start, end, parent span and the round it belongs to.  Spans stay
in memory and are written out once, when the run ends.

A span's layer is the part of its name before the first dot: one of the
seven autokolm modules, or `bench` for the benchmark's own phases.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("seqgen", "normality", "modes", "automaton", "complexity",
          "constructions", "cli")


@dataclass(frozen=True)
class Span:
    span_id: int
    round_id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Measures calls, keeps spans while tracing, counts failures."""

    def __init__(self):
        self.tracing = False
        self.round_id = 0
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.attempted = 0
        self.failed_by_layer: dict[str, int] = defaultdict(int)
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.failed_by_layer.values())

    @contextmanager
    def _span(self, name: str):
        if not self.tracing:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, self.round_id, name, start, end, parent))

    @contextmanager
    def phase(self, name: str):
        """A span of the benchmark's own (layer `bench`) grouping calls."""
        with self._span("bench." + name):
            yield

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn, returning (value, seconds); value is None if it raised.

        Any exception, BudgetExceeded included, is a failed operation of
        the layer the span name starts with.
        """
        self.attempted += 1
        with self._span(name):
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            except Exception as exc:  # every program error is a counted failure
                value = None
                self._fail(name, f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
        return value, elapsed

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one output check; a mismatch is a failed operation."""
        self.attempted += 1
        if not ok:
            self._fail(name, "wrong output" + (f": {detail}" if detail else ""))
        return ok

    def _fail(self, name: str, message: str):
        self.failed_by_layer[name.split(".", 1)[0]] += 1
        self.failures.append(f"{name}: {message}")

    # --- reading the spans back ------------------------------------------

    def total(self, round_id: int, name: str) -> float:
        """Summed duration of the spans called `name` in one round."""
        return sum(s.duration for s in self.spans
                   if s.round_id == round_id and s.name == name)

    def self_times(self, round_id: int) -> dict[str, float]:
        """Per-layer self time: span durations minus their children's."""
        spans = [s for s in self.spans if s.round_id == round_id]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s.layer] += s.duration - child_time[s.span_id]
        return out

    def write_spans(self, path):
        rows = [{"id": s.span_id, "round": s.round_id, "name": s.name,
                 "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(rows, fh)

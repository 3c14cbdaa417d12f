"""Counters, phase timers, and gauges — the metrics half of ``repro.obs``.

The span tracer (:mod:`repro.obs.tracer`) is layered on the same
substrate: a tracer constructed with ``metrics=PerfRecorder()`` derives
flat ``span.<name>`` timers from the span stream.

The solver, the shared-automata DFA universe, and the benchmark
harnesses all want the same three primitives:

* **counters** — monotonically increasing event counts (facts
  propagated, masks built, DFA transitions computed, ...);
* **phase timers** — accumulated wall-clock per named phase, usable as
  a context manager so nesting reads naturally;
* **gauges** — high-water marks (peak points-to set size, peak
  worklist depth, mask-cache width).

A :class:`PerfRecorder` is cheap enough to thread through hot code as
an *optional* collaborator: every call site guards with
``if perf is not None`` so the un-instrumented path pays a single
attribute test.  Recorders merge, snapshot to plain dicts (for the
JSON artifacts under ``bench_results/``), and render a stable,
sorted, human-readable block for the text reports.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = ["PerfRecorder", "null_recorder"]


class PerfRecorder:
    """Counters + phase timers + high-water gauges, merged and rendered."""

    __slots__ = ("counters", "timers", "gauges")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}

    # -- recording ------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into phase timer ``name``."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a ``with``-block into phase ``name`` (accumulating)."""
        start = time.monotonic()
        try:
            yield
        finally:
            self.add_time(name, time.monotonic() - start)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if it is a new high-water."""
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    # -- aggregation ----------------------------------------------------
    def merge(self, other: "PerfRecorder") -> None:
        """Fold ``other`` into this recorder (counters/timers add,
        gauges take the max)."""
        for name, value in other.counters.items():
            self.incr(name, value)
        for name, seconds in other.timers.items():
            self.add_time(name, seconds)
        for name, value in other.gauges.items():
            self.gauge_max(name, value)

    def clear(self) -> None:
        self.counters.clear()
        self.timers.clear()
        self.gauges.clear()

    # -- output ---------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A flat, JSON-friendly view: ``counter.*``, ``seconds.*``,
        ``peak.*`` keys, deterministically ordered."""
        out: Dict[str, object] = {}
        for name in sorted(self.counters):
            out[f"counter.{name}"] = self.counters[name]
        for name in sorted(self.timers):
            out[f"seconds.{name}"] = round(self.timers[name], 6)
        for name in sorted(self.gauges):
            out[f"peak.{name}"] = self.gauges[name]
        return out

    def render(self, title: Optional[str] = None) -> str:
        """Human-readable block for the text reports."""
        lines = []
        if title:
            lines.append(title)
        for key, value in self.snapshot().items():
            lines.append(f"  {key} = {value}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PerfRecorder(counters={len(self.counters)}, "
                f"timers={len(self.timers)}, gauges={len(self.gauges)})")


def null_recorder() -> None:
    """The 'no instrumentation' value — call sites guard on ``None``.

    Exists so intent reads at call sites (``perf=null_recorder()``)
    without inventing a do-nothing recorder class whose method-call
    overhead would land in the solver's hot loop.
    """
    return None

"""``repro.obs`` — structured tracing and metrics for the pipeline.

The observability layer has two halves sharing one discipline (optional
collaborators, ``if x is not None`` on hot paths):

* **metrics** (:mod:`repro.obs.metrics`) — the flat counters/timers/
  gauges substrate (:class:`~repro.obs.metrics.PerfRecorder`);
* **tracing** (:mod:`repro.obs.tracer`) — hierarchical spans with
  attributes plus a typed event stream (:mod:`repro.obs.events`),
  fanned out to sinks: an in-memory span tree, a JSONL event log, and
  a Chrome-trace exporter (:mod:`repro.obs.chrome`) so a full solve
  opens as a flame chart in ``chrome://tracing`` / Perfetto.

Span vocabulary used across the pipeline:

==================  ===================================================
``analysis``        one :func:`~repro.analysis.pipeline.run_analysis`
``attempt``         one degradation-ladder rung (attrs: config, index,
                    outcome, cause, phase)
``phase:pre`` etc.  the four pipeline phases (pre/fpg/merge/main)
``solve``           one solver fixpoint (attrs: phase)
``stride``          one solver check-stride window (attrs: iterations,
                    worklist, facts — contiguous under ``solve``)
``scc:collapse``    one online cycle-elimination pass
``batch:program``   one program of a batch run
==================  ===================================================

Instants: ``fault`` (an injection fired), ``governor.exhausted`` (a
budget tripped), ``scc:condense`` (a Tarjan sweep's stats),
``batch.backoff`` (a planned transient-retry delay).

A tracer is threaded *explicitly* through the pipeline, solver, and
batch runner.  For code that cannot take a parameter (the module-level
fault hooks), :func:`install`/:func:`active`/:func:`current_tracer`
scope a process-wide tracer exactly like :mod:`repro.faults` scopes its
plan; :func:`~repro.analysis.pipeline.run_analysis` installs its tracer
for the duration of the run so fault firings land in the right trace.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.chrome import (
    load_trace_file,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.events import (
    Event,
    Instant,
    SpanBegin,
    SpanEnd,
    event_from_dict,
    events_from_dicts,
    events_to_dicts,
)
from repro.obs.metrics import PerfRecorder, null_recorder
from repro.obs.summary import summarize_events, summarize_trace_payload
from repro.obs.tracer import InMemorySink, JsonlSink, Sink, Span, Tracer

__all__ = [
    "Event", "SpanBegin", "SpanEnd", "Instant", "event_from_dict",
    "events_to_dicts", "events_from_dicts",
    "PerfRecorder", "null_recorder",
    "Span", "Sink", "InMemorySink", "JsonlSink", "Tracer",
    "to_chrome_trace", "write_chrome_trace", "load_trace_file",
    "validate_chrome_trace", "summarize_events", "summarize_trace_payload",
    "install", "uninstall", "active", "current_tracer",
]

_installed: Optional[Tracer] = None
#: per-thread tracer stack — :func:`active` scopes here so concurrent
#: pipeline runs (one per analysis-service request thread) each see
#: their own tracer without racing a process-wide slot.
_thread_tracers = threading.local()


def install(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _installed
    previous = _installed
    _installed = tracer
    return previous


def uninstall() -> Optional[Tracer]:
    """Remove the installed tracer; returns it."""
    return install(None)


@contextmanager
def active(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Scope a tracer to the calling thread for a ``with`` block.

    :func:`~repro.analysis.pipeline.run_analysis` wraps each run in
    this so the module-level hooks (fault firings) land in the run's
    own trace.  The scope is **thread-local**: two requests tracing
    concurrently on different threads never see each other's tracer,
    and restoring on exit cannot race another thread's install.  A
    process-wide :func:`install` still works as the fallback for
    single-threaded tooling.
    """
    stack = getattr(_thread_tracers, "stack", None)
    if stack is None:
        stack = _thread_tracers.stack = []
    stack.append(tracer)
    try:
        yield tracer
    finally:
        stack.pop()


def current_tracer() -> Optional[Tracer]:
    """The thread-scoped tracer, else the process-wide one, or ``None``
    — hook for call sites that cannot take a tracer parameter (the
    fault-injection points)."""
    stack = getattr(_thread_tracers, "stack", None)
    if stack:
        return stack[-1]
    return _installed

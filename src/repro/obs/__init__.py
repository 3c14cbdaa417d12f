"""``repro.obs`` — structured tracing for the pipeline.

A :class:`~repro.obs.tracer.Tracer` records hierarchical spans with
attributes plus a typed event stream (:mod:`repro.obs.events`), fanned
out to sinks: an in-memory span tree, a JSONL event log, and a
Chrome-trace exporter (:mod:`repro.obs.chrome`) so a full solve opens
as a flame chart in ``chrome://tracing`` / Perfetto.  It is an optional
collaborator: call sites guard with ``if tracer is not None``.  The
solver's own counters are not a trace; read them through
:meth:`~repro.pta.results.PointsToResult.stats`.

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
fault hooks, the artifact cache), :func:`active` scopes a tracer to the
calling thread and :func:`current_tracer` reads it;
:func:`~repro.analysis.pipeline.run_analysis` makes its tracer active
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
from repro.obs.summary import summarize_events, summarize_trace_payload
from repro.obs.tracer import InMemorySink, JsonlSink, Sink, Span, Tracer

__all__ = [
    "Event", "SpanBegin", "SpanEnd", "Instant", "event_from_dict",
    "events_to_dicts", "events_from_dicts",
    "Span", "Sink", "InMemorySink", "JsonlSink", "Tracer",
    "to_chrome_trace", "write_chrome_trace", "load_trace_file",
    "validate_chrome_trace", "summarize_events", "summarize_trace_payload",
    "active", "current_tracer",
]

#: per-thread tracer stack — :func:`active` scopes here so concurrent
#: pipeline runs (one per analysis-service request thread) each see
#: their own tracer.
_thread_tracers = threading.local()


@contextmanager
def active(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Scope a tracer to the calling thread for a ``with`` block.

    :func:`~repro.analysis.pipeline.run_analysis` wraps each run in
    this so the module-level hooks (fault firings) land in the run's
    own trace.  The scope is **thread-local**: two requests tracing
    concurrently on different threads never see each other's tracer,
    and restoring on exit cannot race another thread's scope.  Scopes
    nest; the innermost wins, and ``active(None)`` masks an outer one.
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
    """The calling thread's innermost :func:`active` tracer, or
    ``None`` — hook for call sites that cannot take a tracer parameter
    (the fault-injection points, the artifact cache)."""
    stack = getattr(_thread_tracers, "stack", None)
    return stack[-1] if stack else None

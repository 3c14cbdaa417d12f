"""Hierarchical span tracer and its sinks.

A :class:`Tracer` is the single object the pipeline threads through
every subsystem (call sites guard with ``if tracer is not None``, so
the un-instrumented hot path pays exactly one attribute test).  It
maintains a stack of open spans, stamps every event against its
construction-time epoch, and fans the typed event stream
(:mod:`repro.obs.events`) out to any number of sinks:

* :class:`InMemorySink` — builds the span *tree* live (what the
  pipeline's acceptance checks and the Chrome exporter read);
* :class:`JsonlSink` — appends one JSON object per event to a file or
  file-like object (the ``--trace-out`` event log).

A tracer with **no sinks** is the "null sink" configuration: span
structure is still tracked but every emitted event is dropped, so each
span costs a handful of dict operations.  Benchmarks hold that
configuration under 5% overhead on a full solve; passing ``tracer=None``
remains the true zero-cost path.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.obs.events import Event, Instant, SpanBegin, SpanEnd

__all__ = ["Span", "Sink", "InMemorySink", "JsonlSink", "Tracer"]


class Span:
    """One node of the reconstructed span tree (built by
    :class:`InMemorySink`; the tracer itself only tracks ids)."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attrs",
                 "children")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 start: float) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = {}
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every descendant span (self included) with ``name``."""
        return [span for span in self.walk() if span.name == name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"dur={self.duration:.6f}, children={len(self.children)})")


class Sink:
    """Receives the typed event stream; subclasses override :meth:`emit`."""

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release any resources; idempotent."""


class InMemorySink(Sink):
    """Collects events and builds the span tree live.

    ``roots`` holds every top-level span; ``instants`` every point
    event.  Instants are also attached to their parent span's subtree
    position only through ``span_id`` — the tree holds spans only.
    """

    def __init__(self) -> None:
        self.events: List[Event] = []
        self.roots: List[Span] = []
        self.instants: List[Instant] = []
        self._open: Dict[int, Span] = {}
        self._closed: Dict[int, Span] = {}

    def emit(self, event: Event) -> None:
        self.events.append(event)
        if isinstance(event, SpanBegin):
            span = Span(event.name, event.span_id, event.parent_id, event.ts)
            span.attrs.update(event.attrs)
            self._open[event.span_id] = span
            parent = self._open.get(event.parent_id)
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)
        elif isinstance(event, SpanEnd):
            span = self._open.pop(event.span_id, None)
            if span is not None:
                span.end = event.ts
                span.attrs.update(event.attrs)
                self._closed[event.span_id] = span
        elif isinstance(event, Instant):
            self.instants.append(event)

    # -- queries --------------------------------------------------------
    def find(self, name: str) -> List[Span]:
        """Every span named ``name``, anywhere in the forest."""
        return [span for root in self.roots for span in root.find(name)]

    def span_names(self) -> List[str]:
        """Sorted distinct span names seen so far."""
        return sorted({span.name for root in self.roots
                       for span in root.walk()})

    def instant_names(self) -> List[str]:
        return sorted({instant.name for instant in self.instants})


class JsonlSink(Sink):
    """Writes one JSON object per event (the ``--trace-out`` log).

    ``target`` is a path (opened lazily, closed by :meth:`close`) or an
    open file-like object (left open — the caller owns it).
    """

    def __init__(self, target) -> None:
        self._path: Optional[str] = None
        self._handle = None
        if hasattr(target, "write"):
            self._handle = target
            self._owns = False
        else:
            self._path = str(target)
            self._owns = True

    def emit(self, event: Event) -> None:
        if self._handle is None:
            self._handle = open(self._path, "w", encoding="utf-8")
        self._handle.write(json.dumps(event.as_dict(), sort_keys=True))
        self._handle.write("\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self._owns:
                self._handle.close()
                self._handle = None

    @staticmethod
    def load(source) -> List[Event]:
        """Read a JSONL event log back into typed events (path or
        file-like)."""
        from repro.obs.events import event_from_dict

        if hasattr(source, "read"):
            lines = source.read().splitlines()
        else:
            with open(source, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        return [event_from_dict(json.loads(line))
                for line in lines if line.strip()]


class Tracer:
    """Span stack + event fan-out.  Thread one per analysis run.

    ``clock`` is injectable for deterministic tests.
    """

    def __init__(self, sinks: Iterable[Sink] = (),
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.sinks: List[Sink] = list(sinks)
        self._clock = clock
        self.epoch = clock()
        self._next_id = 1
        #: open spans: id -> (name, start ts); insertion order = stack.
        self._open: Dict[int, tuple] = {}
        self._stack: List[int] = []

    # -- time -----------------------------------------------------------
    def now(self) -> float:
        """Seconds since this tracer's epoch."""
        return self._clock() - self.epoch

    # -- structure ------------------------------------------------------
    @property
    def current_span_id(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def _emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def begin(self, name: str, **attrs) -> int:
        """Open a span; returns its id (pass to :meth:`end`)."""
        ts = self.now()
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._open[span_id] = (name, ts)
        self._stack.append(span_id)
        self._emit(SpanBegin(ts=ts, span_id=span_id, parent_id=parent,
                             name=name, attrs=attrs))
        return span_id

    def end(self, span_id: int, **attrs) -> float:
        """Close a span (inner open spans are closed first, so the tree
        stays well-nested even on exceptional exits); returns the
        duration."""
        entry = self._open.get(span_id)
        if entry is None:
            return 0.0
        while self._stack and self._stack[-1] != span_id:
            self.end(self._stack[-1])
        if self._stack:
            self._stack.pop()
        name, start = self._open.pop(span_id)
        ts = self.now()
        duration = ts - start
        self._emit(SpanEnd(ts=ts, span_id=span_id, name=name,
                           duration=duration, attrs=attrs))
        return duration

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict[str, object]]:
        """Context-managed span.  Yields a dict — anything put in it
        becomes an end-of-span attribute, which is how call sites attach
        results (counts, outcomes) measured inside the block.  An
        escaping exception stamps an ``error`` attribute automatically.
        """
        span_id = self.begin(name, **attrs)
        extra: Dict[str, object] = {}
        try:
            yield extra
        except BaseException as exc:
            extra.setdefault("error", type(exc).__name__)
            raise
        finally:
            self.end(span_id, **extra)

    def instant(self, name: str, **attrs) -> None:
        """Emit a point event parented to the innermost open span."""
        self._emit(Instant(ts=self.now(), name=name,
                           span_id=self.current_span_id, attrs=attrs))

    def close(self) -> None:
        """Close any still-open spans (outermost last) and every sink."""
        while self._stack:
            self.end(self._stack[-1])
        for sink in self.sinks:
            sink.close()

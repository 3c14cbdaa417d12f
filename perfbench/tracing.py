"""Benchmark-owned spans and per-layer self-time attribution.

The traced run threads one :class:`repro.obs.Tracer` through every
cell.  ``run_analysis`` already emits the ``analysis``/``attempt``/
``phase:*``/``solve``/``scc:collapse`` spans; this module adds spans
around the public calls the pipeline makes into layers that emit none
of their own (parsing, the clients, the incremental diff and warm-start
preparation, the artifact cache).  It does so from outside: module
attributes and cache methods are wrapped for the life of the run and
restored afterwards, so no module code changes.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs

#: span name -> layer.  Spans not listed (``solve``, ``stride``,
#: ``scc:collapse``) belong to the layer of their nearest listed
#: ancestor, so a solve under ``phase:pre`` counts as pre-analysis.
LAYER_OF_SPAN = {
    "cell": "bench",
    "frontend": "frontend",
    "analysis": "analysis.pipeline",
    "attempt": "analysis.pipeline",
    "phase:pre": "pta.pre",
    "phase:fpg": "core.fpg",
    "phase:merge": "core.merging",
    "phase:main": "pta.main",
    "clients": "clients",
    "incr.diff": "incr.diff",
    "incr.prepare": "incr.prepare",
    "incr.cache": "incr.cache",
}

#: per-layer time metric name of each layer (the ``bench`` layer, the
#: cell span's own bookkeeping, is not reported).
TIME_METRIC = {
    "frontend": "frontend.parse_s",
    "pta.pre": "pta.pre.solve_s",
    "core.fpg": "core.fpg.build_s",
    "core.merging": "core.merging.merge_s",
    "pta.main": "pta.main.solve_s",
    "clients": "clients.s",
    "analysis.pipeline": "analysis.pipeline.self_s",
    "incr.diff": "incr.diff_s",
    "incr.prepare": "incr.prepare_s",
    "incr.cache": "incr.cache.s",
}


class LayerTracer:
    """Owns the run's tracer and the wrappers that open layer spans.

    ``tracer`` is ``None`` while a round runs untraced; every wrapper
    then calls straight through.
    """

    def __init__(self, enabled: bool) -> None:
        self.sink = obs.InMemorySink()
        self._tracer = obs.Tracer([self.sink]) if enabled else None
        self.tracer: Optional[obs.Tracer] = None
        self._restore: List[Tuple[object, str, object]] = []

    def activate(self, on: bool) -> None:
        self.tracer = self._tracer if on else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        if self.tracer is None:
            yield
            return
        with self.tracer.span(name, **attrs):
            yield

    def wrap(self, owner: object, attr: str, span_name: str) -> None:
        """Replace ``owner.attr`` by a callable that runs the original
        inside a ``span_name`` span (while a round is traced)."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(span_name):
                return original(*args, **kwargs)

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_seconds(self) -> Tuple[Dict[str, float], int]:
        """Self seconds per layer summed over every traced cell, and the
        number of traced cells."""
        totals: Dict[str, float] = defaultdict(float)
        cells = 0

        def visit(span: obs.Span, layer: str) -> None:
            layer = LAYER_OF_SPAN.get(span.name, layer)
            covered = sum(child.duration for child in span.children)
            totals[layer] += span.duration - covered
            for child in span.children:
                visit(child, layer)

        for root in self.sink.roots:
            if root.name == "cell" and root.closed:
                cells += 1
                visit(root, "bench")
        return dict(totals), cells


def instrument_incr(lt: LayerTracer) -> None:
    """Open ``incr.diff``/``incr.prepare`` spans around the two calls
    ``run_analysis`` makes to set up a warm start."""
    import repro.analysis.pipeline as pipeline
    import repro.incr.engine as engine

    lt.wrap(pipeline, "diff_programs", "incr.diff")
    lt.wrap(engine, "prepare_warm_start", "incr.prepare")


def instrument_cache(lt: LayerTracer, cache) -> None:
    """Open ``incr.cache`` spans around one cache's key hashing, loads
    and stores."""
    for method in ("key_for", "load", "store"):
        lt.wrap(cache, method, "incr.cache")

"""Wire protocol of the analysis service.

Everything on the wire is JSON over HTTP/1.1.  This module owns the
request/response vocabulary shared by the server
(:mod:`repro.serve.server`) and the stdlib client
(:mod:`repro.serve.client`): program specs, cache keys, structured
error bodies, and — crucially — the **deterministic result payload**
that backs the service's correctness contract:

    a served analysis returns *byte-identical* results to a direct
    :func:`repro.analysis.pipeline.run_analysis` of the same program
    and configuration.

Timing fields obviously differ run to run, so the contract is pinned on
:func:`deterministic_result`: the final configuration, degradation
provenance, the paper's client metrics, and a SHA-256 digest over the
full points-to relation (:func:`result_digest`).  The differential
tests serialize both sides with :func:`canonical_json` and compare
bytes.

Error bodies are uniform::

    {"ok": false, "v": 1, "error": {"code": "...", "message": "...", ...}}

with ``code`` drawn from a small closed set (``bad-request``,
``unknown-tenant``, ``tenant-busy``, ``server-busy``, ``draining``,
``transient``, ``exhausted``, ``not-found``, ``internal``).  Internal
errors carry the :class:`repro.analysis.pipeline.FailureInfo` fields —
kind/cause/phase/error_type/detail — never a traceback.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Tuple

from repro.analysis.pipeline import AnalysisRun
from repro.ir.program import Program
from repro.pta.results import PointsToResult

__all__ = [
    "PROTOCOL_VERSION",
    "BadRequest",
    "ok_body",
    "error_body",
    "canonical_json",
    "load_program",
    "program_key",
    "cache_key",
    "result_digest",
    "deterministic_result",
    "analysis_payload",
]

PROTOCOL_VERSION = 1

#: Client-metric keys that are deterministic for a given
#: (program, configuration) — the paper's Table 2 counts.
CLIENT_METRIC_KEYS = (
    "call_graph_edges",
    "reachable_methods",
    "poly_call_sites",
    "may_fail_casts",
    "abstract_objects",
    "method_contexts",
    "escaping_exceptions",
)


class BadRequest(Exception):
    """A malformed request: surfaces as a structured 400, never a
    traceback."""


def ok_body(**fields: Any) -> Dict[str, Any]:
    return {"ok": True, "v": PROTOCOL_VERSION, **fields}


def error_body(code: str, message: str, **extra: Any) -> Dict[str, Any]:
    return {"ok": False, "v": PROTOCOL_VERSION,
            "error": {"code": code, "message": message, **extra}}


def canonical_json(payload: Any) -> bytes:
    """The byte form both differential sides are compared in: sorted
    keys, compact separators, UTF-8."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# Program specs
# ----------------------------------------------------------------------
def load_program(spec: Any) -> Tuple[str, Program]:
    """Materialize a request's program spec.

    Specs are dicts: ``{"kind": "source", "text": ...}`` parses
    mini-Java source; ``{"kind": "corpus", "name": ...}`` loads a
    hand-written corpus program; ``{"kind": "profile", "name": ...,
    "scale": 1.0}`` generates a synthetic workload.  A bare string is
    shorthand for a source spec.  Returns ``(key_material, program)``
    where ``key_material`` identifies the program content for caching.
    Anything malformed raises :class:`BadRequest` with the detail.
    """
    if isinstance(spec, str):
        spec = {"kind": "source", "text": spec}
    if not isinstance(spec, dict):
        raise BadRequest(f"program spec must be a string or object, "
                         f"got {type(spec).__name__}")
    kind = spec.get("kind")
    try:
        if kind == "source":
            text = spec["text"]
            from repro.frontend import parse_program

            return f"source:{text}", parse_program(text)
        if kind == "corpus":
            name = spec["name"]
            from repro.workloads import corpus_program

            return f"corpus:{name}", corpus_program(name)
        if kind == "profile":
            name = spec["name"]
            scale = float(spec.get("scale", 1.0))
            from repro.workloads import load_profile

            return f"profile:{name}@{scale}", load_profile(name, scale)
    except BadRequest:
        raise
    except KeyError as exc:
        raise BadRequest(f"program spec missing field {exc}") from exc
    except Exception as exc:  # parse errors, unknown names, bad scales
        raise BadRequest(
            f"could not load program ({type(exc).__name__}): {exc}"
        ) from exc
    raise BadRequest(
        f"unknown program kind {kind!r}; known: source, corpus, profile"
    )


def program_key(key_material: str) -> str:
    """A compact content hash of the program spec."""
    return hashlib.sha256(key_material.encode("utf-8")).hexdigest()[:16]


def cache_key(key_material: str, config: str) -> str:
    """The resident-result cache key: program content + configuration.

    Nothing else changes a result: no process-wide knob or environment
    variable is read, and a request's fault plan is scoped to its own
    thread (and its faulted runs are never cached).
    """
    return hashlib.sha256(
        f"{key_material}\x00{config}".encode("utf-8")
    ).hexdigest()


# ----------------------------------------------------------------------
# Deterministic result payloads
# ----------------------------------------------------------------------
def result_digest(result: PointsToResult) -> str:
    """SHA-256 over the canonical points-to relation.

    Covers the call graph (edges + reachable set), the field points-to
    relation, and every cast record — the observable output surface of
    a solve.  Objects are spelled as *semantic descriptor tokens*
    (allocation-site key, heap context, class name) rather than
    solver-interned ids: interning order depends on fact discovery
    order, which the solver's scheduling (FIFO or wave loop, cycles
    collapsed early or late) legitimately changes, and the
    byte-identity contract (served ≡ direct) must hold across that.
    """
    def token(obj: int) -> str:
        return (f"{result.object_site_key(obj)!r}"
                f"|{tuple(result.object_heap_context(obj))!r}"
                f"|{result.object_class(obj)}")

    payload = {
        "call_edges": sorted([site, target]
                             for site, target in result.call_graph_edges()),
        "reachable": sorted(result.reachable_methods()),
        "field_pts": sorted([token(src), fld, token(dst)]
                            for src, fld, dst in result.field_points_to()),
        "casts": sorted(
            [site, cls, sorted(token(obj) for obj in objs)]
            for site, cls, objs in result.cast_records()
        ),
        "objects": result.object_count,
    }
    return hashlib.sha256(canonical_json(payload)).hexdigest()


def deterministic_result(run: AnalysisRun) -> Dict[str, Any]:
    """The run-to-run stable portion of an analysis outcome.

    Everything here is a pure function of (program, configuration):
    the final configuration, degradation/exhaustion provenance, the
    client metrics, and the result digest.  Timings, attempt
    wall-clocks, and solver counters are deliberately excluded.
    """
    metrics = run.metrics()
    out: Dict[str, Any] = {
        "analysis": run.config.name,
        "timed_out": run.timed_out,
        "clients": {key: metrics[key] for key in CLIENT_METRIC_KEYS
                    if key in metrics},
        "digest": result_digest(run.result) if run.result is not None else None,
    }
    if run.degraded_from is not None:
        out["degraded_from"] = run.degraded_from
    if run.failed_phase is not None:
        out["failed_phase"] = run.failed_phase
    if run.exhaustion_cause is not None:
        out["exhaustion_cause"] = run.exhaustion_cause
    return out


def analysis_payload(run: AnalysisRun, seconds: float) -> Dict[str, Any]:
    """The full ``analysis`` object of an analyze response: the
    deterministic ``result`` plus the per-serving facts (status,
    wall-clock, attempt provenance)."""
    payload: Dict[str, Any] = {
        "status": run.status,
        "seconds": round(seconds, 6),
        "result": deterministic_result(run),
    }
    if any(not attempt.succeeded for attempt in run.attempts):
        payload["attempts"] = [a.as_dict() for a in run.attempts]
    return payload

"""``repro serve`` — the long-running analysis-as-a-service daemon.

A stdlib :class:`~http.server.ThreadingHTTPServer` (one thread per
request, no new dependencies) that accepts analyze/query requests,
keeps hot programs' :class:`~repro.analysis.pipeline.AnalysisRun`
results resident in a bounded LRU, and wraps every request in the
robustness envelope the rest of the repo already built:

* **admission** — per-tenant fair-share slots
  (:mod:`repro.serve.tenants`); over-share requests get 429-style
  structured errors, never a dead process;
* **budgets** — each admitted request builds its own
  :class:`~repro.analysis.governor.ResourceGovernor` from the tenant's
  memory-sliced :class:`~repro.analysis.governor.GovernorSpec`;
* **deadlines** — a request's ``deadline_seconds`` becomes the
  governor's whole-run deadline, so a slow solve degrades down the
  M-3obj→…→ci ladder (or reports structured exhaustion) instead of
  hanging;
* **retry** — :class:`~repro.faults.TransientFault` rides the shared
  :mod:`repro.retry` jittered backoff, delays recorded per response;
* **chaos** — a request may carry its own ``faults`` spec
  (:mod:`repro.faults`), scoped to its thread, so fault streams run
  against the live server without touching other tenants;
* **tracing** — ``trace: true`` captures the request's span tree
  (written to the server's ``trace_dir`` when configured);
* **no bare tracebacks** — anything unexpected is classified
  (:func:`repro.analysis.pipeline.classify_failure`) into a structured
  JSON error; the worker thread survives;
* **graceful drain** — SIGTERM stops admission, lets in-flight
  requests finish, flushes traces, then exits 0.

Endpoints (all JSON):

==========================  ==========================================
``POST /v1/analyze``        run (or serve from cache) one analysis
``POST /v1/query``          answer a client query (``points-to``,
                            ``alias``, ``callgraph``, ``casts``) over
                            an analysis, computing it if needed
``GET  /v1/health``         liveness + draining flag (never admitted)
``GET  /v1/stats``          tenants, cache, and request counters
==========================  ==========================================
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Sequence, Tuple

from repro import faults as faults_mod
from repro import obs
from repro.analysis.governor import GovernorSpec
from repro.analysis.pipeline import AnalysisRun, classify_failure, run_analysis
from repro.faults import TransientFault, derive_seed
from repro.retry import RetriesExhausted, RetryPolicy, RetryState, call_with_retry
from repro.serve import protocol
from repro.serve.protocol import BadRequest, error_body, ok_body
from repro.serve.tenants import AdmissionController, AdmissionRejected

__all__ = ["ServiceConfig", "ResultCache", "AnalysisService", "ServeDaemon",
           "main"]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a daemon needs, picklable and CLI-expressible."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is announced
    #: tenant allowlist; empty = open admission.
    tenants: Tuple[str, ...] = ()
    max_inflight: int = 8
    #: per-tenant in-flight ceiling; None = fair share of max_inflight.
    tenant_inflight: Optional[int] = None
    #: resident-result LRU capacity (distinct program×config entries).
    cache_size: int = 16
    #: machine-level budget; memory is carved fair-share across tenants.
    governor: GovernorSpec = field(default_factory=GovernorSpec)
    default_deadline_seconds: Optional[float] = None
    #: hard ceiling on client-requested deadlines.
    max_deadline_seconds: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: honor request-scoped ``faults`` specs (chaos testing); off for
    #: hardened deployments.
    allow_request_faults: bool = True
    default_config: str = "M-2obj"
    #: directory for per-request Chrome traces (``trace: true``).
    trace_dir: Optional[str] = None
    #: directory for the on-disk artifact cache shared across requests
    #: (pre-analysis/FPG/merge reuse); None = recompute every time.
    artifact_cache_dir: Optional[str] = None
    #: seed for per-request backoff jitter derivation.
    seed: int = 0

    @property
    def tenant_spec(self) -> GovernorSpec:
        """The per-tenant budget: machine-shared axes (memory) divided
        across the configured tenants, per-request axes unchanged —
        the same fair-share carve the batch runner applies per
        worker."""
        return self.governor.slice(max(1, len(self.tenants)))


class ResultCache:
    """A bounded, thread-safe LRU of resident analysis runs.

    Only clean runs are cached: an entry must have completed its
    *requested* configuration (status ``ok``) with no request-scoped
    fault plan scoped — a degraded or fault-shaped outcome is an
    honest answer to *that request*, not to the program/config key.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, AnalysisRun]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[AnalysisRun]:
        with self._lock:
            run = self._entries.get(key)
            if run is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return run

    def put(self, key: str, run: AnalysisRun) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = run
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "capacity": self.capacity,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}


class AnalysisService:
    """Transport-agnostic request handling: dicts in, (status, dict) out.

    The HTTP layer is a thin shell over :meth:`handle`; tests drive the
    service directly through it as well, so every robustness property
    is exercised without sockets too.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.admission = AdmissionController(
            max_inflight=config.max_inflight,
            tenant_inflight=config.tenant_inflight,
            tenants=config.tenants,
        )
        self.cache = ResultCache(config.cache_size)
        self.artifacts = None
        if config.artifact_cache_dir:
            from repro.incr import ArtifactCache

            self.artifacts = ArtifactCache(config.artifact_cache_dir)
        self.started = time.monotonic()
        self._seq_lock = threading.Lock()
        self._seq = 0
        self._requests: Dict[str, int] = {}
        if config.trace_dir:
            os.makedirs(config.trace_dir, exist_ok=True)

    # -- bookkeeping ----------------------------------------------------
    def _next_seq(self) -> int:
        with self._seq_lock:
            self._seq += 1
            return self._seq

    def _count(self, what: str) -> None:
        with self._seq_lock:
            self._requests[what] = self._requests.get(what, 0) + 1

    # -- dispatch -------------------------------------------------------
    def handle(self, method: str, path: str,
               body: Optional[Dict[str, Any]] = None,
               ) -> Tuple[int, Dict[str, Any]]:
        """Route one request; *every* outcome is a structured JSON body."""
        try:
            if method == "GET" and path == "/v1/health":
                return 200, self.health()
            if method == "GET" and path == "/v1/stats":
                return 200, self.stats()
            if method == "POST" and path == "/v1/analyze":
                return self.analyze(body or {})
            if method == "POST" and path == "/v1/query":
                return self.query(body or {})
            return 404, error_body("not-found",
                                   f"no endpoint {method} {path}")
        except AdmissionRejected as exc:
            self._count("rejected")
            extra: Dict[str, Any] = {}
            if exc.retry_after is not None:
                extra["retry_after"] = exc.retry_after
            return exc.http_status, error_body(exc.code, str(exc), **extra)
        except BadRequest as exc:
            self._count("bad-request")
            return 400, error_body("bad-request", str(exc))
        except Exception as exc:  # noqa: BLE001 - the no-traceback guarantee
            self._count("internal-error")
            failure = classify_failure(exc)
            return 500, error_body("internal", "request failed",
                                   **failure.as_dict())

    # -- endpoints ------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return ok_body(
            status="draining" if self.admission.draining else "serving",
            inflight=self.admission.inflight,
            uptime_seconds=round(time.monotonic() - self.started, 3),
        )

    def stats(self) -> Dict[str, Any]:
        with self._seq_lock:
            requests = dict(sorted(self._requests.items()))
        body = ok_body(
            admission=self.admission.snapshot(),
            cache=self.cache.stats(),
            requests=requests,
        )
        if self.artifacts is not None:
            body["artifacts"] = self.artifacts.stats()
        return body

    def analyze(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        self._count("analyze")
        request = _AnalyzeRequest.parse(body, self.config)
        ticket = self.admission.admit(request.tenant)
        outcome = "failed"
        try:
            status, payload = self._run_analysis_request(request)
            payload.pop("_run", None)
            outcome = payload.get("analysis", {}).get("status", "failed") \
                if payload.get("ok") else \
                payload.get("error", {}).get("code", "failed")
            return status, payload
        finally:
            ticket.release(outcome)

    def query(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        self._count("query")
        request = _AnalyzeRequest.parse(body, self.config)
        query = body.get("query")
        if not isinstance(query, dict) or "kind" not in query:
            raise BadRequest("query must be an object with a 'kind'")
        ticket = self.admission.admit(request.tenant)
        outcome = "failed"
        try:
            status, payload = self._run_analysis_request(request)
            if not payload.get("ok"):
                outcome = payload.get("error", {}).get("code", "failed")
                return status, payload
            run = payload.pop("_run")
            if run.result is None:
                outcome = "exhausted"
                return 200, error_body(
                    "exhausted",
                    "analysis exhausted every degradation rung; "
                    "no result to query",
                    phase=run.failed_phase, cause=run.exhaustion_cause)
            answer = _answer_query(run, query)
            outcome = "ok"
            return 200, ok_body(
                tenant=request.tenant,
                config=payload["config"],
                cached=payload["cached"],
                query=dict(query),
                answer=answer,
            )
        finally:
            ticket.release(outcome)

    # -- the robustness envelope ----------------------------------------
    def _run_analysis_request(
        self, request: "_AnalyzeRequest",
    ) -> Tuple[int, Dict[str, Any]]:
        """Admitted analyze/query core: cache, budgets, deadline,
        faults, retry, tracing, failure classification.

        On success the payload carries the live run under the private
        ``"_run"`` key for the query path; :meth:`analyze` never
        returns it (``_finish`` pops it).
        """
        seq = self._next_seq()
        started = time.monotonic()
        key = protocol.cache_key(request.key_material, request.config)
        use_cache = request.plan is None and request.cache
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                return self._finish(request, cached, cached_hit=True,
                                    seconds=time.monotonic() - started,
                                    retry_state=RetryState())
        program = request.load_program()

        tracer: Optional[obs.Tracer] = None
        mem_sink: Optional[obs.InMemorySink] = None
        if request.trace:
            mem_sink = obs.InMemorySink()
            tracer = obs.Tracer(sinks=(mem_sink,))

        def attempt() -> AnalysisRun:
            spec = request.governor_spec(self.config,
                                         elapsed=time.monotonic() - started)
            governor = spec.build() if spec.bounded else None
            with faults_mod.active(request.plan):
                return run_analysis(
                    program, request.config,
                    governor=governor, degrade=request.degrade,
                    tracer=tracer, artifact_cache=self.artifacts,
                )

        state = RetryState()
        rng = random.Random(derive_seed(self.config.seed,
                                        f"{request.tenant}:{seq}"))
        try:
            run = call_with_retry(
                attempt, policy=self.config.retry, rng=rng,
                retryable=TransientFault, state=state,
            )
        except RetriesExhausted as exc:
            failure = classify_failure(exc.last)
            return 503, error_body(
                "transient", str(exc), retries=exc.retries,
                backoff_delays=[round(d, 6) for d in exc.delays],
                **failure.as_dict())
        except Exception as exc:  # noqa: BLE001 - classify, never die
            failure = classify_failure(exc)
            return 500, error_body("internal", "analysis failed",
                                   retries=state.retries,
                                   **failure.as_dict())
        finally:
            if tracer is not None:
                tracer.close()

        if use_cache and run.status == "ok":
            self.cache.put(key, run)
        trace_path = self._write_trace(request, seq, mem_sink)
        return self._finish(request, run, cached_hit=False,
                            seconds=time.monotonic() - started,
                            retry_state=state, trace_path=trace_path,
                            trace_events=(len(mem_sink.events)
                                          if mem_sink is not None else None))

    def _write_trace(self, request: "_AnalyzeRequest", seq: int,
                     mem_sink: Optional[obs.InMemorySink]) -> Optional[str]:
        if mem_sink is None or not self.config.trace_dir:
            return None
        path = os.path.join(self.config.trace_dir,
                            f"request-{seq}-{request.tenant}.trace.json")
        obs.write_chrome_trace(mem_sink.events, path)
        return path

    def _finish(self, request: "_AnalyzeRequest", run: AnalysisRun, *,
                cached_hit: bool, seconds: float, retry_state: RetryState,
                trace_path: Optional[str] = None,
                trace_events: Optional[int] = None,
                ) -> Tuple[int, Dict[str, Any]]:
        payload = ok_body(
            tenant=request.tenant,
            config=request.config,
            cached=cached_hit,
            analysis=protocol.analysis_payload(run, seconds),
        )
        if retry_state.retries:
            payload["retries"] = retry_state.retries
            payload["backoff_delays"] = [round(d, 6)
                                         for d in retry_state.delays]
        if trace_events is not None:
            payload["trace"] = {"events": trace_events, "path": trace_path}
        payload["_run"] = run
        return 200, payload


@dataclass(frozen=True)
class _AnalyzeRequest:
    """A validated analyze/query request."""

    tenant: str
    config: str
    key_material: str
    program_spec: Any
    degrade: Any
    deadline_seconds: Optional[float]
    plan: Optional[faults_mod.FaultPlan]
    trace: bool
    cache: bool

    @classmethod
    def parse(cls, body: Dict[str, Any],
              config: ServiceConfig) -> "_AnalyzeRequest":
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        tenant = body.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise BadRequest("tenant must be a non-empty string")
        analysis = body.get("config", config.default_config)
        if not isinstance(analysis, str):
            raise BadRequest("config must be a string")
        try:
            from repro.analysis.config import parse_config

            parse_config(analysis)
        except ValueError as exc:
            raise BadRequest(f"bad config {analysis!r}: {exc}") from exc
        spec = body.get("program")
        if spec is None:
            raise BadRequest("missing 'program'")
        # validate the spec shape (and reject unknown kinds) up front;
        # the program itself is materialized lazily, inside admission
        key_material, _ = protocol.load_program(spec)

        deadline = body.get("deadline_seconds",
                            config.default_deadline_seconds)
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                raise BadRequest("deadline_seconds must be a number")
            if deadline <= 0:
                raise BadRequest("deadline_seconds must be positive")
            if config.max_deadline_seconds is not None:
                deadline = min(deadline, config.max_deadline_seconds)
        elif config.max_deadline_seconds is not None:
            deadline = config.max_deadline_seconds

        plan = None
        fault_text = body.get("faults")
        if fault_text:
            if not config.allow_request_faults:
                raise BadRequest("request-scoped fault injection is "
                                 "disabled on this server")
            try:
                plan = faults_mod.FaultPlan.parse(
                    str(fault_text), seed=int(body.get("faults_seed", 0)))
            except ValueError as exc:
                raise BadRequest(f"bad faults spec: {exc}") from exc

        degrade = body.get("degrade", True)
        if not isinstance(degrade, (bool, str, list)):
            raise BadRequest("degrade must be a bool, string, or list")
        if isinstance(degrade, list):
            degrade = [str(rung) for rung in degrade]

        return cls(
            tenant=tenant, config=analysis, key_material=key_material,
            program_spec=spec, degrade=degrade, deadline_seconds=deadline,
            plan=plan, trace=bool(body.get("trace", False)),
            cache=bool(body.get("cache", True)),
        )

    def load_program(self):
        _, program = protocol.load_program(self.program_spec)
        return program

    def governor_spec(self, config: ServiceConfig,
                      elapsed: float) -> GovernorSpec:
        """The per-attempt governor recipe: the tenant's fair-share
        budget with the request's *remaining* deadline as the whole-run
        deadline.  A phase clock starts no earlier than the governor's
        and :meth:`~repro.analysis.governor.ResourceGovernor.check`
        tests the deadline first, so a wall budget of ``remaining``
        could never trip before the deadline does."""
        spec = config.tenant_spec
        if self.deadline_seconds is None:
            return spec
        remaining = max(self.deadline_seconds - elapsed, 1e-6)
        return replace(spec, deadline_seconds=remaining)


# ----------------------------------------------------------------------
# Query answering
# ----------------------------------------------------------------------
def _answer_query(run: AnalysisRun, query: Dict[str, Any]) -> Dict[str, Any]:
    result = run.result
    kind = query.get("kind")
    try:
        if kind == "points-to":
            method, var = query["method"], query["var"]
            descriptors = sorted(
                (str(d.site_key), str(d.class_name))
                for d in result.var_points_to(method, var)
            )
            return {"method": method, "var": var,
                    "objects": [list(pair) for pair in descriptors],
                    "count": len(descriptors)}
        if kind == "alias":
            from repro.clients import alias

            method = query["method"]
            if "var_a" in query:
                return {"method": method,
                        "var_a": query["var_a"], "var_b": query["var_b"],
                        "may_alias": alias.may_alias(
                            result, method, query["var_a"], query["var_b"])}
            report = alias.alias_pairs(result, method)
            return {"method": method,
                    "variable_count": report.variable_count,
                    "alias_pairs": [list(pair)
                                    for pair in sorted(report.alias_pairs)]}
        if kind == "callgraph":
            from repro.clients import build_call_graph

            graph = build_call_graph(result)
            return {"edge_count": graph.edge_count,
                    "reachable_methods": graph.reachable_method_count,
                    "edges": sorted([site, target]
                                    for site, target in graph.edges)}
        if kind == "casts":
            from repro.clients import check_casts

            report = check_casts(result)
            return {"may_fail": report.may_fail_count,
                    "safe": report.safe_count}
    except BadRequest:
        raise
    except KeyError as exc:
        raise BadRequest(f"query missing or unknown field/name: {exc}")
    raise BadRequest(
        f"unknown query kind {kind!r}; known: points-to, alias, "
        f"callgraph, casts")


# ----------------------------------------------------------------------
# HTTP shell
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def _respond(self, status: int, payload: Dict[str, Any]) -> None:
        payload = {k: v for k, v in payload.items() if not k.startswith("_")}
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        retry_after = payload.get("error", {}).get("retry_after") \
            if isinstance(payload.get("error"), dict) else None
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(data)

    def _dispatch(self, method: str) -> None:
        service: AnalysisService = self.server.service  # type: ignore[attr-defined]
        body: Optional[Dict[str, Any]] = None
        if method == "POST":
            try:
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b""
                body = json.loads(raw.decode("utf-8")) if raw else {}
            except (ValueError, UnicodeDecodeError) as exc:
                self._respond(400, error_body("bad-request",
                                              f"unparseable body: {exc}"))
                return
        try:
            status, payload = service.handle(method, self.path, body)
        except Exception as exc:  # noqa: BLE001 - last-ditch: stay structured
            failure = classify_failure(exc)
            status, payload = 500, error_body("internal", "request failed",
                                              **failure.as_dict())
        self._respond(status, payload)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def log_message(self, fmt: str, *args: Any) -> None:
        # request logging goes through the service's counters/traces;
        # stderr chatter would interleave across handler threads
        pass


class ServeDaemon(ThreadingHTTPServer):
    """The bound server: ``service`` plus drain orchestration."""

    def __init__(self, config: ServiceConfig) -> None:
        # The service first: a config it refuses never binds the port.
        self.service = AnalysisService(config)
        super().__init__((config.host, config.port), _Handler)
        self._drained = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Graceful shutdown: stop admitting, finish in-flight work,
        stop the accept loop.  Safe to call from any thread except the
        one inside :meth:`serve_forever`; idempotent."""
        completed = self.service.admission.drain(timeout)
        self.shutdown()
        self._drained.set()
        return completed

    @property
    def drained(self) -> bool:
        return self._drained.is_set()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="analysis-as-a-service daemon (see docs/service.md)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 = pick an ephemeral port (announced on "
                             "stdout)")
    parser.add_argument("--tenants", default="",
                        help="comma-separated tenant allowlist "
                             "(default: open admission)")
    parser.add_argument("--max-inflight", type=int, default=8)
    parser.add_argument("--tenant-inflight", type=int, default=None,
                        help="per-tenant in-flight ceiling (default: "
                             "fair share of --max-inflight)")
    parser.add_argument("--cache-size", type=int, default=16,
                        help="resident-result LRU capacity")
    parser.add_argument("--wall-seconds", type=float, default=None,
                        help="per-phase wall-clock budget per request")
    parser.add_argument("--memory-mb", type=float, default=None,
                        help="machine memory budget, carved fair-share "
                             "across tenants")
    parser.add_argument("--max-iterations", type=int, default=None)
    parser.add_argument("--check-stride", type=int, default=1024)
    parser.add_argument("--default-deadline", type=float, default=None,
                        help="deadline applied to requests that bring "
                             "none")
    parser.add_argument("--max-deadline", type=float, default=None,
                        help="ceiling on client-requested deadlines")
    parser.add_argument("--max-retries", type=int, default=2)
    parser.add_argument("--backoff", type=float, default=0.05,
                        help="base transient-retry backoff in seconds")
    parser.add_argument("--no-request-faults", action="store_true",
                        help="reject request-scoped fault injection")
    parser.add_argument("--default-config", default="M-2obj")
    parser.add_argument("--trace-dir", default=None,
                        help="write per-request Chrome traces here")
    parser.add_argument("--artifact-cache-dir", default=None,
                        help="on-disk artifact cache reused across "
                             "requests (pre-analysis/FPG/merge)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    config = ServiceConfig(
        host=args.host, port=args.port,
        tenants=tuple(t for t in args.tenants.split(",") if t),
        max_inflight=args.max_inflight,
        tenant_inflight=args.tenant_inflight,
        cache_size=args.cache_size,
        governor=GovernorSpec(
            wall_seconds=args.wall_seconds,
            memory_mb=args.memory_mb,
            max_iterations=args.max_iterations,
            check_stride=args.check_stride,
        ),
        default_deadline_seconds=args.default_deadline,
        max_deadline_seconds=args.max_deadline,
        retry=RetryPolicy(max_retries=args.max_retries,
                          backoff_seconds=args.backoff),
        allow_request_faults=not args.no_request_faults,
        default_config=args.default_config,
        trace_dir=args.trace_dir,
        artifact_cache_dir=args.artifact_cache_dir,
        seed=args.seed,
    )
    try:
        daemon = ServeDaemon(config)
    except ValueError as exc:  # e.g. a group-writable --artifact-cache-dir
        parser.error(str(exc))
    host, port = daemon.address

    def _on_signal(signum: int, _frame: Any) -> None:
        # shutdown() would deadlock called from the serve_forever
        # thread (where signal handlers run), so drain on a helper
        threading.Thread(target=daemon.drain, daemon=True).start()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    print(f"repro-serve listening on http://{host}:{port}", flush=True)
    try:
        daemon.serve_forever()
    finally:
        daemon.server_close()
    snapshot = daemon.service.admission.snapshot()
    print(f"repro-serve drained cleanly "
          f"(inflight={snapshot['inflight']}, "
          f"tenants={len(snapshot['tenants'])})", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

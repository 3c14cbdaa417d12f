"""The analysis service (:mod:`repro.serve`): protocol, admission,
budgets/deadlines, the differential byte-identity contract, and the
HTTP shell end to end (in-process daemon, stdlib client)."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.governor import (
    GovernorConcurrencyError,
    GovernorSpec,
    ResourceGovernor,
)
from repro.analysis.pipeline import run_analysis
from repro.frontend import parse_program
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import BadRequest, canonical_json, deterministic_result
from repro.serve.server import (
    AnalysisService,
    ResultCache,
    ServeDaemon,
    ServiceConfig,
)
from repro.serve.tenants import AdmissionController, AdmissionRejected

from .conftest import FIGURE1_SOURCE

WORKLOAD = FIGURE1_SOURCE


def make_service(**overrides) -> AnalysisService:
    return AnalysisService(ServiceConfig(**overrides))


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_source_spec_roundtrip(self):
        key, program = protocol.load_program(WORKLOAD)
        assert key.startswith("source:")
        assert program.classes

    def test_bare_string_is_source_shorthand(self):
        key_a, _ = protocol.load_program(WORKLOAD)
        key_b, _ = protocol.load_program({"kind": "source",
                                          "text": WORKLOAD})
        assert key_a == key_b

    def test_corpus_and_profile_specs(self):
        key, program = protocol.load_program({"kind": "corpus",
                                              "name": "cache"})
        assert key == "corpus:cache"
        assert program.classes
        key2, program2 = protocol.load_program(
            {"kind": "profile", "name": "luindex", "scale": 0.05})
        assert key2 == "profile:luindex@0.05"
        assert program2.classes

    @pytest.mark.parametrize("spec", [
        42,
        {"kind": "nope"},
        {"kind": "source"},
        {"kind": "corpus", "name": "no-such-corpus"},
        {"kind": "profile", "name": "luindex", "scale": "wide"},
        "class { syntax error",
    ])
    def test_malformed_specs_raise_bad_request(self, spec):
        with pytest.raises(BadRequest):
            protocol.load_program(spec)

    def test_cache_key_varies_by_each_component(self):
        base = protocol.cache_key("source:x", "M-2obj", "scc=on")
        assert protocol.cache_key("source:y", "M-2obj",
                                  "scc=on") != base
        assert protocol.cache_key("source:x", "ci", "scc=on") != base
        assert protocol.cache_key("source:x", "M-2obj",
                                  "scc=off") != base
        assert protocol.cache_key("source:x", "M-2obj",
                                  "scc=on") == base

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == \
            canonical_json({"a": [2, 3], "b": 1})


# ----------------------------------------------------------------------
# The byte-identity contract, under both solver loops
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("config", ["M-2obj", "M-2obj@noscc",
                                        "ci", "2obj@noscc"])
    def test_served_equals_direct(self, config):
        """A served analysis returns byte-identical deterministic
        payloads to a direct ``run_analysis`` — the service's
        correctness contract, pinned for both solver loops via the
        ``@noscc`` suffix."""
        direct = run_analysis(parse_program(WORKLOAD), config)
        direct_bytes = canonical_json(deterministic_result(direct))

        service = make_service()
        status, body = service.handle(
            "POST", "/v1/analyze", {"program": WORKLOAD, "config": config})
        assert status == 200, body
        served_bytes = canonical_json(body["analysis"]["result"])
        assert served_bytes == direct_bytes

        # and the cached second serving returns the same bytes again
        status2, body2 = service.handle(
            "POST", "/v1/analyze", {"program": WORKLOAD, "config": config})
        assert body2["cached"] is True
        assert canonical_json(body2["analysis"]["result"]) == direct_bytes

    def test_digest_distinguishes_configs(self):
        service = make_service()
        digests = set()
        for config in ("ci", "M-2obj"):
            _, body = service.handle(
                "POST", "/v1/analyze",
                {"program": WORKLOAD, "config": config})
            digests.add(body["analysis"]["result"]["digest"])
        assert len(digests) == 2


# ----------------------------------------------------------------------
# Deadlines and budgets
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_tiny_deadline_degrades_not_hangs(self):
        """A request deadline reaches the governor: the solve exhausts
        (riding the ladder) and comes back as a structured 200, fast."""
        service = make_service(
            governor=GovernorSpec(check_stride=1))
        start = time.monotonic()
        status, body = service.handle("POST", "/v1/analyze", {
            "program": {"kind": "profile", "name": "luindex", "scale": 0.4},
            "config": "M-3obj",
            "deadline_seconds": 0.005,
            "cache": False,
        })
        elapsed = time.monotonic() - start
        assert status == 200, body
        assert body["analysis"]["status"] in ("exhausted", "degraded")
        assert elapsed < 30.0
        if body["analysis"]["status"] == "exhausted":
            result = body["analysis"]["result"]
            assert result["timed_out"] is True
            assert result["digest"] is None

    def test_generous_deadline_unchanged_result(self):
        direct = run_analysis(parse_program(WORKLOAD), "M-2obj")
        direct_bytes = canonical_json(deterministic_result(direct))
        service = make_service(governor=GovernorSpec(check_stride=1))
        status, body = service.handle("POST", "/v1/analyze", {
            "program": WORKLOAD, "config": "M-2obj",
            "deadline_seconds": 120.0,
        })
        assert status == 200
        assert body["analysis"]["status"] == "ok"
        assert canonical_json(body["analysis"]["result"]) == direct_bytes

    def test_max_deadline_caps_requests(self):
        service = make_service(max_deadline_seconds=90.0)
        from repro.serve.server import _AnalyzeRequest

        parsed = _AnalyzeRequest.parse(
            {"program": WORKLOAD, "deadline_seconds": 600.0},
            service.config)
        assert parsed.deadline_seconds == 90.0
        # requests bringing no deadline inherit the ceiling too
        parsed2 = _AnalyzeRequest.parse({"program": WORKLOAD},
                                        service.config)
        assert parsed2.deadline_seconds == 90.0

    @pytest.mark.parametrize("bad", [0, -1, "soon"])
    def test_bad_deadline_is_bad_request(self, bad):
        service = make_service()
        status, body = service.handle("POST", "/v1/analyze", {
            "program": WORKLOAD, "deadline_seconds": bad})
        assert status == 400
        assert body["error"]["code"] == "bad-request"


class TestGovernorConcurrencyGuard:
    def test_cross_thread_reuse_rejected(self):
        """One governor, one attempt, one thread: a second thread
        touching a claimed governor gets a clear error instead of
        silently corrupted accounting."""
        governor = ResourceGovernor.from_limits(wall_seconds=100.0)
        governor.begin_attempt()
        failures = []

        def misuse():
            try:
                with governor.phase("main"):
                    pass
            except GovernorConcurrencyError as exc:
                failures.append(str(exc))

        worker = threading.Thread(target=misuse)
        worker.start()
        worker.join()
        assert len(failures) == 1
        assert "one governor per attempt" in failures[0]

    def test_same_thread_reuse_fine(self):
        governor = ResourceGovernor.from_limits(wall_seconds=100.0)
        governor.begin_attempt()
        with governor.phase("pre"):
            governor.check(iterations=1)
        governor.begin_attempt()
        with governor.phase("main"):
            governor.check(iterations=1)

    def test_service_builds_one_governor_per_attempt(self):
        """Concurrent service requests never share a governor: each
        attempt builds a fresh one from the spec, so parallel analyze
        calls with budgets succeed rather than tripping the guard."""
        service = make_service(
            governor=GovernorSpec(wall_seconds=60.0, check_stride=1))
        outcomes = []

        def request():
            status, body = service.handle(
                "POST", "/v1/analyze",
                {"program": WORKLOAD, "config": "M-2obj", "cache": False})
            outcomes.append((status, body.get("ok")))

        workers = [threading.Thread(target=request) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert outcomes == [(200, True)] * 4


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_unknown_tenant_rejected_without_state(self):
        controller = AdmissionController(tenants=("alice",))
        with pytest.raises(AdmissionRejected) as info:
            controller.admit("mallory")
        assert info.value.code == "unknown-tenant"
        assert info.value.http_status == 403
        assert "mallory" not in controller.snapshot()["tenants"]

    def test_tenant_fair_share_enforced(self):
        controller = AdmissionController(max_inflight=4,
                                         tenants=("alice", "bob"))
        assert controller.tenant_inflight == 2
        tickets = [controller.admit("alice"), controller.admit("alice")]
        with pytest.raises(AdmissionRejected) as info:
            controller.admit("alice")
        assert info.value.code == "tenant-busy"
        assert info.value.retry_after is not None
        # the other tenant's share is untouched
        tickets.append(controller.admit("bob"))
        for ticket in tickets:
            ticket.release("ok")
        assert controller.inflight == 0

    def test_global_ceiling_enforced(self):
        controller = AdmissionController(max_inflight=2, tenant_inflight=2)
        tickets = [controller.admit("a"), controller.admit("b")]
        with pytest.raises(AdmissionRejected) as info:
            controller.admit("c")
        assert info.value.code == "server-busy"
        for ticket in tickets:
            ticket.release("ok")

    def test_release_is_idempotent(self):
        controller = AdmissionController()
        ticket = controller.admit("alice")
        ticket.release("ok")
        ticket.release("ok")
        snapshot = controller.snapshot()["tenants"]["alice"]
        assert snapshot["completed"] == 1
        assert controller.inflight == 0

    def test_drain_blocks_until_quiet_then_rejects(self):
        controller = AdmissionController()
        ticket = controller.admit("alice")
        release_timer = threading.Timer(0.05, ticket.release, args=("ok",))
        release_timer.start()
        assert controller.drain(timeout=5.0) is True
        with pytest.raises(AdmissionRejected) as info:
            controller.admit("alice")
        assert info.value.code == "draining"
        assert info.value.http_status == 503


# ----------------------------------------------------------------------
# Structured failures — no bare tracebacks on the wire
# ----------------------------------------------------------------------
class TestStructuredFailures:
    def test_crash_fault_is_classified_500(self):
        service = make_service()
        status, body = service.handle("POST", "/v1/analyze", {
            "program": WORKLOAD,
            "faults": "main-boundary:kind=crash:times=9"})
        assert status == 500
        error = body["error"]
        assert error["code"] == "internal"
        assert error["kind"] == "crash"
        assert "Traceback" not in json.dumps(body)

    def test_transient_exhaustion_is_503_with_provenance(self):
        service = make_service()
        status, body = service.handle("POST", "/v1/analyze", {
            "program": WORKLOAD,
            "faults": "main-boundary:kind=transient:times=99"})
        assert status == 503
        error = body["error"]
        assert error["code"] == "transient"
        assert error["retries"] == service.config.retry.max_retries
        assert len(error["backoff_delays"]) == error["retries"] + 1

    def test_transient_recovers_with_retry_provenance(self):
        service = make_service()
        status, body = service.handle("POST", "/v1/analyze", {
            "program": WORKLOAD,
            "faults": "main-boundary:kind=transient:times=1"})
        assert status == 200
        assert body["retries"] == 1
        assert len(body["backoff_delays"]) == 1
        assert body["analysis"]["status"] == "ok"

    def test_missing_program_is_400(self):
        service = make_service()
        status, body = service.handle("POST", "/v1/analyze", {})
        assert status == 400
        assert body["error"]["code"] == "bad-request"

    def test_unknown_config_is_400(self):
        service = make_service()
        status, body = service.handle("POST", "/v1/analyze", {
            "program": WORKLOAD, "config": "nonsense"})
        assert status == 400

    def test_unknown_endpoint_is_404(self):
        service = make_service()
        status, body = service.handle("GET", "/v2/nope")
        assert status == 404
        assert body["error"]["code"] == "not-found"

    def test_unknown_query_kind_is_400(self):
        service = make_service()
        status, body = service.handle("POST", "/v1/query", {
            "program": WORKLOAD, "query": {"kind": "taint"}})
        assert status == 400
        assert "taint" in body["error"]["message"]

    def test_request_faults_can_be_disabled(self):
        service = make_service(allow_request_faults=False)
        status, body = service.handle("POST", "/v1/analyze", {
            "program": WORKLOAD, "faults": "main-boundary:kind=crash"})
        assert status == 400
        assert "disabled" in body["error"]["message"]


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", "run-a")
        cache.put("b", "run-b")
        assert cache.get("a") == "run-a"  # refresh a
        cache.put("c", "run-c")  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == "run-a"
        assert cache.get("c") == "run-c"
        assert cache.evictions == 1

    def test_fault_requests_bypass_cache(self):
        service = make_service()
        service.handle("POST", "/v1/analyze", {"program": WORKLOAD})
        hits_before = service.cache.hits
        status, body = service.handle("POST", "/v1/analyze", {
            "program": WORKLOAD,
            "faults": "main-boundary:kind=transient:times=1"})
        assert status == 200
        assert body["cached"] is False
        assert service.cache.hits == hits_before  # no read either

    def test_exhausted_runs_not_cached(self):
        service = make_service(governor=GovernorSpec(check_stride=1))
        body_args = {
            "program": {"kind": "profile", "name": "luindex", "scale": 0.4},
            "config": "M-3obj", "deadline_seconds": 0.005,
        }
        status, body = service.handle("POST", "/v1/analyze", dict(body_args))
        assert status == 200
        if body["analysis"]["status"] != "ok":
            assert service.cache.stats()["entries"] == 0

    def test_zero_capacity_disables_caching(self):
        service = make_service(cache_size=0)
        service.handle("POST", "/v1/analyze", {"program": WORKLOAD})
        _, body = service.handle("POST", "/v1/analyze",
                                 {"program": WORKLOAD})
        assert body["cached"] is False


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
class TestQueries:
    @pytest.fixture(scope="class")
    def service(self):
        return make_service()

    def test_points_to(self, service):
        status, body = service.handle("POST", "/v1/query", {
            "program": WORKLOAD,
            "query": {"kind": "points-to", "method": "<Main>.main", "var": "a"}})
        assert status == 200
        answer = body["answer"]
        assert answer["count"] >= 1
        assert all(len(pair) == 2 for pair in answer["objects"])

    def test_alias_pair_and_report(self, service):
        status, body = service.handle("POST", "/v1/query", {
            "program": WORKLOAD,
            "query": {"kind": "alias", "method": "<Main>.main",
                      "var_a": "a", "var_b": "zf"}})
        assert status == 200
        assert body["answer"]["may_alias"] is True
        status2, body2 = service.handle("POST", "/v1/query", {
            "program": WORKLOAD,
            "query": {"kind": "alias", "method": "<Main>.main"}})
        assert status2 == 200
        assert body2["answer"]["variable_count"] >= 2

    def test_callgraph_and_casts(self, service):
        _, cg = service.handle("POST", "/v1/query", {
            "program": WORKLOAD, "query": {"kind": "callgraph"}})
        assert cg["answer"]["edge_count"] >= 1
        _, casts = service.handle("POST", "/v1/query", {
            "program": WORKLOAD, "query": {"kind": "casts"}})
        assert set(casts["answer"]) == {"may_fail", "safe"}

    def test_query_reuses_cached_analysis(self, service):
        _, first = service.handle("POST", "/v1/query", {
            "program": WORKLOAD, "query": {"kind": "callgraph"}})
        assert first["cached"] is True  # prior tests populated the entry


# ----------------------------------------------------------------------
# HTTP end to end: in-process daemon + stdlib client
# ----------------------------------------------------------------------
class TestHTTPEndToEnd:
    @pytest.fixture()
    def daemon(self):
        daemon = ServeDaemon(ServiceConfig(port=0, tenants=("alice", "bob")))
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            yield daemon
        finally:
            if not daemon.drained:
                daemon.shutdown()
            daemon.server_close()
            thread.join(timeout=10.0)

    def _client(self, daemon, **kwargs):
        host, port = daemon.address
        return ServeClient(f"http://{host}:{port}", **kwargs)

    def test_analyze_and_health_over_http(self, daemon):
        client = self._client(daemon, tenant="alice")
        health = client.health()
        assert health["status"] == "serving"
        out = client.analyze(WORKLOAD, config="M-2obj")
        direct = run_analysis(parse_program(WORKLOAD), "M-2obj")
        assert canonical_json(out["analysis"]["result"]) == \
            canonical_json(deterministic_result(direct))

    def test_rejections_surface_as_serve_errors(self, daemon):
        client = self._client(daemon, tenant="mallory")
        with pytest.raises(ServeError) as info:
            client.analyze(WORKLOAD)
        assert info.value.status == 403
        assert info.value.code == "unknown-tenant"

    def test_unparseable_body_is_structured_400(self, daemon):
        host, port = daemon.address
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/analyze", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            urllib.request.urlopen(request, timeout=10.0)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as exc:
            body = json.loads(exc.read().decode("utf-8"))
            assert exc.code == 400
            assert body["error"]["code"] == "bad-request"

    def test_drain_stops_admission_then_serving(self, daemon):
        client = self._client(daemon, tenant="alice")
        client.analyze(WORKLOAD)
        assert daemon.drain(timeout=10.0) is True
        assert daemon.drained
        status, body = client.raw("POST", "/v1/analyze",
                                  {"program": WORKLOAD, "tenant": "alice"})
        # after shutdown the socket may refuse outright (transport) or,
        # if a listener thread lingers, answer 503 draining
        assert status in (0, 503)

    def test_stats_accounting(self, daemon):
        client = self._client(daemon, tenant="bob")
        client.analyze(WORKLOAD)
        stats = client.stats()
        tenants = stats["admission"]["tenants"]
        assert tenants["bob"]["admitted"] >= 1
        assert tenants["bob"]["outcomes"].get("ok", 0) >= 1

    def test_shared_writable_artifact_cache_dir_is_a_usage_error(
            self, tmp_path, capsys):
        """Cache entries are unpickled, so ``serve`` refuses a directory
        other users can write (exit 2) before it binds the port."""
        from repro.serve.server import main as serve_main

        shared = tmp_path / "artifacts"
        shared.mkdir()
        shared.chmod(0o777)
        with pytest.raises(SystemExit) as info:
            serve_main(["--port", "0", "--artifact-cache-dir", str(shared)])
        assert info.value.code == 2
        assert "writable" in capsys.readouterr().err

"""Chaos soak: the service under concurrent fault streams.

The serving twin of the batch runner's fault-matrix tests: many
threads, several tenants, a request mix of clean runs, crash faults,
transient faults (some recoverable, some not), injected exhaustion, and
malformed requests — all at once.  The properties soaked for:

* **responsiveness** — every request gets a structured response;
  health answers throughout; the process never dies;
* **tenant isolation** — one tenant's chaos never shows up in another
  tenant's accounting, and the clean tenant's results stay
  byte-identical to a direct run;
* **no bare tracebacks** — every failure is a classified JSON error;
* **drain** — after the storm, SIGTERM-style drain completes with
  zero in-flight requests and admission closed;
* **the real daemon** — a ``repro serve`` subprocess answers a scripted
  client session (served results byte-identical to a direct run, a
  repeat served from the cache, structured errors for an unknown tenant
  and an injected crash, a retried transient) and exits 0 on SIGTERM.
"""

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Sequence

from repro.analysis.pipeline import run_analysis
from repro.frontend import parse_program
from repro.retry import RetryPolicy
from repro.serve.client import ServeClient
from repro.serve.protocol import canonical_json, deterministic_result
from repro.serve.server import AnalysisService, ServeDaemon, ServiceConfig

from .conftest import FIGURE1_SOURCE

TENANTS = ("clean", "crasher", "flaky", "starved")

_ANNOUNCE = re.compile(r"repro-serve listening on http://([^:]+):(\d+)")

#: the scripted session's program: the Figure 1 shape, with virtual
#: dispatch, a field load, and a cast to exercise every query kind.
SESSION_SOURCE = """
class A { field f: A; method foo() { return this; } }
class B extends A { method foo() { return this; } }
class C extends A { method foo() { return this; } }
main {
  x = new A();
  y = new A();
  xf = new B();
  x.f = xf;
  yf = new C();
  y.f = yf;
  a = y.f;
  a.foo();
  c = (C) a;
}
"""

#: request templates per tenant: (body-extras, acceptable status codes)
CHAOS_MENU = {
    "clean": [({}, {200})],
    "crasher": [
        ({"faults": "main-boundary:kind=crash:times=99"}, {500}),
        ({"faults": "pre-boundary:kind=crash:times=99"}, {500}),
        ({}, {200}),
    ],
    "flaky": [
        ({"faults": "main-boundary:kind=transient:times=1"}, {200}),
        ({"faults": "main-boundary:kind=transient:times=99"}, {503}),
        ({}, {200}),
    ],
    "starved": [
        ({"faults": "main-boundary:kind=exhaust:times=99"}, {200}),
        ({"config": "nonsense"}, {400}),
        ({"program": {"kind": "bogus"}}, {400}),
    ],
}


def _expected_clean_bytes() -> bytes:
    run = run_analysis(parse_program(FIGURE1_SOURCE), "M-2obj")
    return canonical_json(deterministic_result(run))


class TestChaosSoak:
    def test_soak_structured_responses_and_isolation(self):
        service = AnalysisService(ServiceConfig(
            tenants=TENANTS, max_inflight=8, tenant_inflight=2,
            retry=RetryPolicy(max_retries=2, backoff_seconds=0.001),
        ))
        clean_bytes = _expected_clean_bytes()
        violations = []
        admitted_counts = {tenant: 0 for tenant in TENANTS}
        lock = threading.Lock()

        def soak(tenant: str, worker: int) -> None:
            rng = random.Random(worker * 7919 + hash(tenant) % 1000)
            for round_number in range(6):
                extras, acceptable = CHAOS_MENU[tenant][
                    rng.randrange(len(CHAOS_MENU[tenant]))]
                body = {"program": FIGURE1_SOURCE, "config": "M-2obj",
                        "tenant": tenant, **extras}
                try:
                    status, payload = service.handle(
                        "POST", "/v1/analyze", body)
                except Exception as exc:  # noqa: BLE001 - soak must record
                    with lock:
                        violations.append(
                            f"{tenant}/{worker}: handle raised "
                            f"{type(exc).__name__}: {exc}")
                    continue
                problems = []
                # admission pushback is always acceptable under load
                if status not in acceptable | {429}:
                    problems.append(f"status {status}")
                if status != 400:
                    # 400s are rejected before admission and never
                    # reach the tenant ledger
                    with lock:
                        admitted_counts[tenant] += 1
                if not isinstance(payload, dict) or "ok" not in payload:
                    problems.append("unstructured payload")
                if "Traceback" in json.dumps(payload):
                    problems.append("traceback leaked")
                if (tenant == "clean" and status == 200
                        and canonical_json(payload["analysis"]["result"])
                        != clean_bytes):
                    problems.append("clean tenant result corrupted")
                if problems:
                    with lock:
                        violations.append(
                            f"{tenant}/{worker} round {round_number}: "
                            f"{'; '.join(problems)} <- {payload}")

        workers = [
            threading.Thread(target=soak, args=(tenant, index))
            for tenant in TENANTS for index in range(2)
        ]
        for worker in workers:
            worker.start()
        # the server must answer health while the storm runs
        health_codes = set()
        for worker in workers:
            status, _body = service.handle("GET", "/v1/health")
            health_codes.add(status)
            worker.join()
        assert health_codes == {200}
        assert not violations, "\n".join(violations)

        snapshot = service.admission.snapshot()
        assert snapshot["inflight"] == 0
        tenants = snapshot["tenants"]
        # isolation: chaos outcomes stay within their tenant's ledger
        assert "internal" not in tenants["clean"]["outcomes"]
        assert "transient" not in tenants["clean"]["outcomes"]
        assert tenants["clean"]["outcomes"].get("ok", 0) > 0
        for name in TENANTS:
            state = tenants[name]
            assert state["completed"] + state["rejected"] >= \
                admitted_counts[name]
        # the storm over, a clean request still round-trips perfectly
        status, body = service.handle(
            "POST", "/v1/analyze",
            {"program": FIGURE1_SOURCE, "config": "M-2obj",
             "tenant": "clean"})
        assert status == 200
        assert canonical_json(body["analysis"]["result"]) == clean_bytes

        # and drain closes the doors with nothing in flight
        assert service.admission.drain(timeout=10.0) is True
        status, body = service.handle(
            "POST", "/v1/analyze",
            {"program": FIGURE1_SOURCE, "tenant": "clean"})
        assert status == 503
        assert body["error"]["code"] == "draining"


class TestHTTPDrainUnderLoad:
    def test_drain_waits_for_inflight_requests(self):
        """Drain during a slow request: the request completes (not
        killed), new admissions get 503, and the daemon stops cleanly."""
        daemon = ServeDaemon(ServiceConfig(
            port=0, max_inflight=4, tenant_inflight=4))
        serve_thread = threading.Thread(target=daemon.serve_forever,
                                        daemon=True)
        serve_thread.start()
        host, port = daemon.address
        client = ServeClient(f"http://{host}:{port}")
        results = {}

        def slow_request():
            # a cold profile solve: long enough to still be in flight
            # when drain begins
            results["slow"] = client.raw("POST", "/v1/analyze", {
                "program": {"kind": "profile", "name": "luindex",
                            "scale": 0.3},
                "config": "2obj", "cache": False})

        worker = threading.Thread(target=slow_request)
        worker.start()
        # wait for the request to be admitted before draining
        for _ in range(200):
            if daemon.service.admission.inflight > 0:
                break
            threading.Event().wait(0.01)
        drained = daemon.drain(timeout=60.0)
        worker.join(timeout=60.0)
        daemon.server_close()
        serve_thread.join(timeout=10.0)

        assert drained is True
        status, payload = results["slow"]
        assert status == 200, payload
        assert payload["ok"] is True
        assert daemon.service.admission.inflight == 0


class BootedServer:
    """A ``repro serve`` subprocess plus the URL it announced."""

    def __init__(self, process: subprocess.Popen, url: str) -> None:
        self.process = process
        self.url = url

    def terminate_and_wait(self, timeout: float = 30.0) -> int:
        """SIGTERM (the drain path), then wait for exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        return self.process.returncode

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10.0)


def boot_server(extra_args: Sequence[str] = (),
                timeout: float = 30.0) -> BootedServer:
    """Start ``python -m repro.cli serve --port 0`` and wait for the
    announce line; raises ``RuntimeError`` when the daemon dies before
    announcing."""
    env = dict(os.environ)
    src_root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src_root),
                    env.get("PYTHONPATH", "")) if p)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                raise RuntimeError(
                    f"serve daemon exited {process.returncode} before "
                    f"announcing")
            continue
        match = _ANNOUNCE.search(line)
        if match:
            host, port = match.group(1), match.group(2)
            return BootedServer(process, f"http://{host}:{port}")
    process.kill()
    process.wait(timeout=10.0)
    raise RuntimeError("serve daemon did not announce within timeout")


class TestSubprocessSigterm:
    def test_sigterm_drains_and_exits_zero(self):
        """The real daemon and signal path: boot it as a subprocess,
        drive a scripted session through the stdlib client, SIGTERM it,
        and require a clean exit with the farewell line."""
        config = "M-2obj"
        direct = canonical_json(deterministic_result(
            run_analysis(parse_program(SESSION_SOURCE), config)))
        server = boot_server(("--tenants", "alice,bob",
                              "--max-retries", "2"))
        try:
            client = ServeClient(server.url, tenant="alice")
            health = client.health()
            assert (health["ok"], health["status"]) == (True, "serving")

            cold = client.analyze(SESSION_SOURCE, config=config)
            assert cold["cached"] is False
            assert canonical_json(cold["analysis"]["result"]) == direct
            warm = client.analyze(SESSION_SOURCE, config=config)
            assert warm["cached"] is True
            assert canonical_json(warm["analysis"]["result"]) == direct

            callgraph = client.query(SESSION_SOURCE, {"kind": "callgraph"},
                                     config=config)
            assert callgraph["answer"]["edge_count"] > 0
            alias = client.query(
                SESSION_SOURCE, {"kind": "alias", "method": "<Main>.main",
                                 "var_a": "a", "var_b": "yf"},
                config=config)
            assert alias["answer"]["may_alias"] is True

            status, body = client.raw(
                "POST", "/v1/analyze",
                {"program": SESSION_SOURCE, "tenant": "mallory"})
            assert (status, body["error"]["code"]) == (403, "unknown-tenant")

            status, body = client.raw(
                "POST", "/v1/analyze",
                {"program": SESSION_SOURCE, "tenant": "bob",
                 "faults": "main-boundary:kind=crash:times=9"})
            error = body["error"]
            assert (status, error["code"], error["kind"]) == \
                (500, "internal", "crash")

            retried = client.analyze(
                SESSION_SOURCE, config=config, tenant="bob",
                faults="main-boundary:kind=transient:times=1")
            assert retried["retries"] == 1

            health = client.health()
            assert (health["ok"], health["status"]) == (True, "serving")
        finally:
            exit_code = server.terminate_and_wait(timeout=30.0)
        assert exit_code == 0
        assert "drained cleanly" in server.process.stdout.read()

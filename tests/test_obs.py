"""The :mod:`repro.obs` tracing layer: span structure, sinks, the
Chrome exporter, summarization, thread-scoped tracers, and the pipeline
integration (phase/attempt/stride coverage, per-attempt attribution in
the span tree, and the tracing-changes-nothing differential)."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro import faults, obs
from repro.analysis.governor import PhaseBudget, ResourceGovernor
from repro.analysis.pipeline import run_analysis, run_pre_analysis
from repro.faults import FaultPlan, FaultSpec
from repro.obs import (
    InMemorySink,
    Instant,
    JsonlSink,
    SpanBegin,
    SpanEnd,
    Tracer,
)
from repro.pta import Solver


class FakeClock:
    """Injectable monotonic clock for exact-duration assertions."""

    def __init__(self) -> None:
        self.t = 0.0

    def advance(self, seconds: float) -> None:
        self.t += seconds

    def __call__(self) -> float:
        return self.t


def _traced(clock=None):
    sink = InMemorySink()
    tracer = Tracer(sinks=(sink,), **({"clock": clock} if clock else {}))
    return tracer, sink


class TestSpanStructure:
    def test_nesting_builds_tree(self):
        tracer, sink = _traced()
        outer = tracer.begin("analysis", analysis="M-2obj")
        inner = tracer.begin("phase:pre")
        tracer.instant("fault", point="pre-boundary")
        tracer.end(inner)
        tracer.end(outer)
        assert len(sink.roots) == 1
        root = sink.roots[0]
        assert root.name == "analysis"
        assert root.attrs == {"analysis": "M-2obj"}
        assert [c.name for c in root.children] == ["phase:pre"]
        assert sink.instants[0].span_id == inner
        assert sink.span_names() == ["analysis", "phase:pre"]

    def test_span_cm_merges_begin_and_end_attrs(self):
        tracer, sink = _traced()
        with tracer.span("solve", backend="bitset") as attrs:
            attrs["iterations"] = 17
        (span,) = sink.find("solve")
        assert span.closed
        assert span.attrs == {"backend": "bitset", "iterations": 17}

    def test_escaping_exception_stamps_error_and_closes(self):
        tracer, sink = _traced()
        with pytest.raises(ValueError):
            with tracer.span("phase:main"):
                raise ValueError("boom")
        (span,) = sink.find("phase:main")
        assert span.closed
        assert span.attrs["error"] == "ValueError"

    def test_ending_outer_span_closes_inner_first(self):
        tracer, sink = _traced()
        outer = tracer.begin("a")
        tracer.begin("b")
        tracer.end(outer)  # b must close before a for well-nestedness
        kinds = [(e.kind, e.name) for e in sink.events]
        assert kinds == [("span_begin", "a"), ("span_begin", "b"),
                         ("span_end", "b"), ("span_end", "a")]

    def test_close_flushes_open_spans_outermost_last(self):
        tracer, sink = _traced()
        tracer.begin("a")
        tracer.begin("b")
        tracer.close()
        ends = [e.name for e in sink.events if isinstance(e, SpanEnd)]
        assert ends == ["b", "a"]
        assert all(span.closed for root in sink.roots
                   for span in root.walk())

    def test_instant_outside_any_span_has_no_parent(self):
        tracer, sink = _traced()
        tracer.instant("fault", point="main-boundary")
        assert sink.instants[0].span_id is None

    def test_end_unknown_span_is_noop(self):
        tracer, sink = _traced()
        assert tracer.end(999) == 0.0
        assert sink.events == []

    def test_durations_come_from_the_injected_clock(self):
        clock = FakeClock()
        tracer, sink = _traced(clock)
        span_id = tracer.begin("solve")
        clock.advance(2.5)
        assert tracer.end(span_id) == pytest.approx(2.5)
        (span,) = sink.find("solve")
        assert span.duration == pytest.approx(2.5)


class TestJsonlSink:
    def _emit_sample(self, tracer):
        with tracer.span("analysis", analysis="ci") as attrs:
            tracer.instant("fault", point="main-boundary", kind="crash")
            attrs["outcome"] = "ok"

    def test_round_trips_through_typed_events(self):
        buffer = io.StringIO()
        mem = InMemorySink()
        tracer = Tracer(sinks=(JsonlSink(buffer), mem))
        self._emit_sample(tracer)
        tracer.close()
        loaded = JsonlSink.load(io.StringIO(buffer.getvalue()))
        assert [e.as_dict() for e in loaded] == \
            [e.as_dict() for e in mem.events]
        assert [e.kind for e in loaded] == \
            ["span_begin", "instant", "span_end"]

    def test_path_target_is_owned_and_loadable(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tracer = Tracer(sinks=(JsonlSink(str(path)),))
        self._emit_sample(tracer)
        tracer.close()
        events = JsonlSink.load(str(path))
        assert isinstance(events[0], SpanBegin)
        assert isinstance(events[-1], SpanEnd)
        assert events[-1].attrs == {"outcome": "ok"}


class TestChromeExport:
    def _sample_events(self):
        clock = FakeClock()
        tracer, sink = _traced(clock)
        with tracer.span("analysis"):
            clock.advance(0.1)
            with tracer.span("phase:main", backend="bitset") as attrs:
                clock.advance(0.4)
                tracer.instant("governor.exhausted", resource="memory")
                attrs["iterations"] = 3
            clock.advance(0.1)
        return sink.events

    def test_export_shape_and_validation(self):
        payload = obs.to_chrome_trace(self._sample_events())
        assert obs.validate_chrome_trace(payload) == []
        phases = [e["ph"] for e in payload["traceEvents"]]
        assert phases.count("M") == 1
        assert phases.count("X") == 2
        assert phases.count("i") == 1
        main = next(e for e in payload["traceEvents"]
                    if e["name"] == "phase:main")
        # begin attrs and end attrs merge into args; seconds become µs
        assert main["args"] == {"backend": "bitset", "iterations": 3}
        assert main["dur"] == pytest.approx(0.4e6)

    def test_unclosed_span_exports_as_B_and_validates(self):
        tracer, sink = _traced()
        tracer.begin("analysis")
        payload = obs.to_chrome_trace(sink.events)
        assert obs.validate_chrome_trace(payload) == []
        assert [e["ph"] for e in payload["traceEvents"]] == ["M", "B"]

    def test_validator_rejects_malformed_payloads(self):
        assert obs.validate_chrome_trace(42)
        assert obs.validate_chrome_trace({"notTraceEvents": []})
        assert obs.validate_chrome_trace({"traceEvents": []}) == \
            ["trace contains no events"]
        errors = obs.validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "Q", "ts": 0},
            {"name": "", "ph": "i", "ts": -1},
            {"name": "y", "ph": "X", "ts": 0},
        ]})
        assert len(errors) == 4  # bad phase, bad name, bad ts, missing dur

    def test_events_from_trace_reconstructs_nesting(self):
        from repro.obs.chrome import events_from_trace

        payload = obs.to_chrome_trace(self._sample_events())
        rebuilt = events_from_trace(payload)
        begins = {e.name: e for e in rebuilt if isinstance(e, SpanBegin)}
        assert set(begins) == {"analysis", "phase:main"}
        assert begins["phase:main"].parent_id == begins["analysis"].span_id
        assert begins["phase:main"].attrs["backend"] == "bitset"
        instants = [e for e in rebuilt if isinstance(e, Instant)]
        assert [i.name for i in instants] == ["governor.exhausted"]

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(self._sample_events(), str(path))
        payload = obs.load_trace_file(str(path))
        assert obs.validate_chrome_trace(payload) == []
        assert payload["otherData"]["producer"] == "repro.obs"

    def test_load_trace_file_detects_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for event in self._sample_events():
                handle.write(json.dumps(event.as_dict()) + "\n")
        payload = obs.load_trace_file(str(path))
        assert isinstance(payload, list)
        assert payload[0]["kind"] == "span_begin"


class TestSummary:
    def test_summary_covers_spans_attempts_and_instants(self):
        clock = FakeClock()
        tracer, sink = _traced(clock)
        with tracer.span("analysis"):
            attempt = tracer.begin("attempt", config="2obj", index=0)
            clock.advance(1.0)
            tracer.instant("governor.exhausted", resource="memory")
            tracer.end(attempt, outcome="exhausted", cause="memory",
                       phase="main")
            attempt = tracer.begin("attempt", config="2type", index=1)
            clock.advance(0.5)
            tracer.end(attempt, outcome="ok")
        text = obs.summarize_events(sink.events)
        assert "degradation-ladder attempts:" in text
        assert "2obj: exhausted (memory in main)" in text
        assert "2type: ok" in text
        assert "governor.exhausted x1" in text
        assert "2 spans" not in text  # 3 spans total (analysis + 2 attempts)

    def test_summarize_trace_payload_accepts_chrome_form(self):
        tracer, sink = _traced()
        with tracer.span("solve", phase="main"):
            pass
        text = obs.summarize_trace_payload(obs.to_chrome_trace(sink.events))
        assert "solve" in text


class TestThreadScoping:
    """There is no process-wide tracer: :func:`obs.active` scopes one
    to the calling thread."""

    def test_active_scopes_and_restores(self):
        outer, inner = Tracer(), Tracer()
        assert obs.current_tracer() is None
        with obs.active(outer):
            with obs.active(inner) as scoped:
                assert scoped is inner
                assert obs.current_tracer() is inner
            assert obs.current_tracer() is outer
            seen = []
            thread = threading.Thread(
                target=lambda: seen.append(obs.current_tracer()))
            thread.start()
            thread.join()
            assert seen == [None]  # another thread sees no tracer
        assert obs.current_tracer() is None


class TestPipelineIntegration:
    def test_trace_covers_all_phases_and_solver_windows(self, tiny_program):
        sink = InMemorySink()
        run = run_analysis(tiny_program, "M-2obj",
                           tracer=Tracer(sinks=(sink,)))
        assert run.succeeded
        names = sink.span_names()
        for expected in ("analysis", "attempt", "phase:pre", "phase:fpg",
                         "phase:merge", "phase:main", "solve", "stride"):
            assert expected in names, f"missing {expected} span"
        (attempt,) = sink.find("attempt")
        assert attempt.attrs["config"] == "M-2obj"
        assert attempt.attrs["outcome"] == "ok"
        # stride windows nest under their solve span, contiguously
        for solve in sink.find("solve"):
            strides = [c for c in solve.children if c.name == "stride"]
            assert strides, "solve span has no stride windows"
            assert sum(s.attrs["iterations"] for s in strides) == \
                solve.attrs["iterations"]

    def test_ladder_attempts_and_exhaustions_are_traced(self, tiny_program):
        sink = InMemorySink()
        governor = ResourceGovernor(
            budgets={"main": PhaseBudget(memory_bytes=1 << 30)},
            check_stride=1)
        plan = FaultPlan([FaultSpec(point="memory-spike", times=-1,
                                    bytes=1 << 40)])
        with faults.active(plan):
            run = run_analysis(tiny_program, "2obj", governor=governor,
                               degrade=True, tracer=Tracer(sinks=(sink,)))
        assert run.degraded
        attempts = sink.find("attempt")
        assert len(attempts) == len(run.attempts) == 2
        assert attempts[0].attrs["outcome"] == "exhausted"
        assert attempts[0].attrs["cause"] == "memory"
        assert attempts[0].attrs["phase"] == "main"
        assert attempts[1].attrs["outcome"] == "ok"
        assert "governor.exhausted" in sink.instant_names()
        assert "fault" in sink.instant_names()  # the spike firing

    def test_each_attempt_traces_its_own_solve(self, tiny_program):
        sink = InMemorySink()
        governor = ResourceGovernor(
            budgets={"main": PhaseBudget(memory_bytes=1 << 30)},
            check_stride=1)
        plan = FaultPlan([FaultSpec(point="memory-spike", times=-1,
                                    bytes=1 << 40)])
        with faults.active(plan):
            run = run_analysis(tiny_program, "2obj", governor=governor,
                               degrade=True, tracer=Tracer(sinks=(sink,)))
        failed, rescued = sink.find("attempt")
        failed_solves = failed.find("solve")
        rescued_solves = rescued.find("solve")
        assert len(failed_solves) == len(rescued_solves) == 1
        assert "iterations" in failed_solves[0].attrs
        # the rescued run's counters are its own solve's, not the sum
        assert rescued_solves[0].attrs["iterations"] == \
            run.result.stats()["iterations"]

    def test_tracing_changes_no_analysis_facts(self, tiny_program):
        def facts(tracer):
            run = run_analysis(tiny_program, "M-2obj", tracer=tracer)
            result = run.result
            pts = {}
            for method in tiny_program.all_methods():
                qname = method.qualified_name
                for var in method.local_variables():
                    ids = result.var_points_to_ids(qname, var)
                    if ids:
                        pts[(qname, var)] = ids
            return (pts, result.call_graph_edges(),
                    result.reachable_methods(), run.config.name)

        traced = facts(Tracer(sinks=(InMemorySink(),)))
        untraced = facts(None)
        assert traced == untraced


class TestNullSinkOverheadSmoke:
    def test_null_sink_solve_stays_cheap(self):
        """A tracer with no sinks on a real solve must stay within 2x
        of the untraced run (the benchmark holds it under 5%; this is
        the flake-proof CI bound)."""
        from repro.pta.solver import Solver
        from repro.workloads import load_profile

        program = load_profile("cycles", 1.0)

        def best_of(tracer, repeats=3):
            times = []
            for _ in range(repeats):
                solver = Solver(program, tracer=tracer)
                solver.solve()
                times.append(solver.solve_seconds)
            return min(times)

        untraced = best_of(None)
        traced = best_of(Tracer())
        assert traced <= max(untraced * 2.0, untraced + 0.05)


@pytest.mark.parametrize("make, keyword", [
    (lambda program, **kw: run_analysis(program, "ci", **kw), "perf"),
    (run_pre_analysis, "perf"),
    (Solver, "perf"),
    (lambda program, **kw: ResourceGovernor(**kw), "perf"),
    (lambda program, **kw: Tracer(**kw), "metrics"),
], ids=["run_analysis", "run_pre_analysis", "Solver", "ResourceGovernor",
        "Tracer"])
def test_removed_metrics_keywords_are_rejected(tiny_program, make, keyword):
    with pytest.raises(TypeError, match=keyword):
        make(tiny_program, **{keyword: None})

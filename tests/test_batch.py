"""The batch corpus runner: per-program isolation, transient-fault
retry, and structured failure records."""

import pytest

from repro import faults
from repro.analysis.governor import GovernorSpec
from repro.bench.batch import BatchRecord, main, run_batch
from repro.faults import FaultPlan, FaultSpec
from repro.workloads import corpus_names, corpus_program, load_profile


def _corpus(*names):
    return [(name, corpus_program(name)) for name in names]


class TestHappyPath:
    def test_all_ok(self):
        result = run_batch(_corpus("cache", "iterator"), config="M-2obj")
        assert [r.status for r in result.records] == ["ok", "ok"]
        assert result.all_usable
        assert result.counts() == {"ok": 2}
        for record in result.records:
            assert record.metrics["analysis"] == "M-2obj"
            assert record.retries == 0

    def test_thunks_evaluated_lazily(self):
        result = run_batch([("cache", lambda: corpus_program("cache"))])
        assert result.records[0].status == "ok"

    def test_to_dict_round_trips(self):
        import json

        result = run_batch(_corpus("cache"))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["counts"] == {"ok": 1}
        assert payload["records"][0]["program"] == "cache"

    def test_render_mentions_totals(self):
        result = run_batch(_corpus("cache"))
        assert "1 ok" in result.render()


class TestIsolation:
    def test_loader_crash_is_isolated(self):
        def explode():
            raise RuntimeError("generator bug")

        result = run_batch([("bad", explode), *_corpus("cache")])
        assert [r.status for r in result.records] == ["failed", "ok"]
        assert "RuntimeError: generator bug" in result.records[0].error
        assert not result.all_usable

    def test_injected_crash_is_isolated(self):
        # each program flips its own seeded coin; under fault seed 4 the
        # first program crashes and the second completes
        result = run_batch(
            _corpus("cache", "iterator"),
            fault_spec="main-boundary:kind=crash:probability=0.5",
            fault_seed=4)
        assert [r.status for r in result.records] == ["failed", "ok"]
        assert "InjectedCrash" in result.records[0].error

    def test_exhaustion_degrades_instead_of_failing(self):
        result = run_batch(_corpus("cache"), config="M-2obj",
                           fault_spec="main-boundary:times=1")
        record = result.records[0]
        assert record.status == "degraded"
        assert record.usable
        assert record.degraded_from == "M-2obj"
        assert record.metrics["analysis"] == "M-2type"

    def test_exhausted_when_ladder_disabled(self):
        # 2obj has no pre-analysis, so the work budget binds in main
        result = run_batch(
            _corpus("cache"), config="2obj", degrade=False,
            governor_spec=GovernorSpec(max_iterations=1, check_stride=1))
        record = result.records[0]
        assert record.status == "exhausted"
        assert not record.usable
        assert record.exhaustion_cause == "work"
        assert record.failed_phase == "main"

    def test_fresh_governor_per_program(self, monkeypatch):
        governors = []
        build = GovernorSpec.build

        def recording_build(spec):
            governor = build(spec)
            governors.append(governor)
            return governor

        monkeypatch.setattr(GovernorSpec, "build", recording_build)
        run_batch(_corpus("cache", "iterator"),
                  governor_spec=GovernorSpec(max_iterations=10 ** 9))
        assert len(governors) == 2
        assert governors[0] is not governors[1]


class TestTransientRetry:
    def test_transient_fault_retried_once(self):
        result = run_batch(_corpus("cache"), backoff_seconds=0.001,
                           fault_spec="main-boundary:kind=transient")
        record = result.records[0]
        assert record.status == "ok"
        assert record.retries == 1

    def test_persistent_transient_becomes_failure(self):
        result = run_batch(_corpus("cache"), max_retries=2,
                           backoff_seconds=0.001,
                           fault_spec="main-boundary:kind=transient:times=-1")
        record = result.records[0]
        assert record.status == "failed"
        assert record.retries == 2
        assert "transient fault persisted" in record.error

    def test_batch_continues_after_retry_exhaustion(self):
        # under fault seed 2 all three attempts of the first program hit
        # a transient; the second program gets through on a retry
        result = run_batch(
            _corpus("cache", "iterator"), max_retries=2,
            backoff_seconds=0.001, fault_seed=2,
            fault_spec="main-boundary:kind=transient:probability=0.7:times=3")
        assert [r.status for r in result.records] == ["failed", "ok"]


class TestBackoffSleeper:
    """The backoff waits go through an injectable sleeper, every
    planned delay is recorded, and giving up never sleeps."""

    def test_injected_sleeper_replaces_real_sleep(self):
        slept = []
        result = run_batch(_corpus("cache"), max_retries=2,
                           backoff_seconds=0.5, seed=3,
                           sleeper=slept.append,
                           fault_spec="main-boundary:kind=transient:times=2")
        record = result.records[0]
        assert record.status == "ok"
        assert record.retries == 2
        assert slept == record.backoff_delays
        # jittered exponential: base * 2^(n-1) * [0.5, 1.5)
        assert 0.25 <= slept[0] < 0.75
        assert 0.5 <= slept[1] < 1.5

    def test_no_sleep_after_final_failure(self):
        slept = []
        # a real post-failure sleep at this base would stall the test
        result = run_batch(_corpus("cache"), max_retries=2,
                           backoff_seconds=10.0, sleeper=slept.append,
                           fault_spec="main-boundary:kind=transient:times=-1")
        record = result.records[0]
        assert record.status == "failed"
        assert record.retries == 2
        # three delays planned (one per transient), only two slept —
        # the giving-up path must not delay the rest of the batch
        assert len(record.backoff_delays) == 3
        assert slept == record.backoff_delays[:2]

    def test_backoff_delays_deterministic_under_seed(self):
        def delays():
            result = run_batch(
                _corpus("cache"), seed=11, backoff_seconds=0.01,
                sleeper=lambda _delay: None,
                fault_spec="main-boundary:kind=transient:times=2")
            return result.records[0].backoff_delays

        assert delays() == delays()

    def test_no_delays_recorded_without_transients(self):
        result = run_batch(_corpus("cache"))
        assert result.records[0].backoff_delays == []
        assert "backoff_delays" not in result.records[0].as_dict()


class TestBatchTracing:
    def test_trace_dir_writes_one_chrome_trace_per_program(self, tmp_path):
        from repro import obs

        run_batch(_corpus("cache", "iterator"), trace_dir=str(tmp_path))
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["cache.trace.json", "iterator.trace.json"]
        payload = obs.load_trace_file(str(tmp_path / "cache.trace.json"))
        assert obs.validate_chrome_trace(payload) == []
        names = {e.get("name") for e in payload["traceEvents"]}
        assert "batch:program" in names
        assert "phase:main" in names

    def test_trace_records_batch_span_and_backoff(self, tmp_path):
        from repro import obs

        run_batch(_corpus("cache"), trace_dir=str(tmp_path),
                  backoff_seconds=0.001, sleeper=lambda _delay: None,
                  fault_spec="main-boundary:kind=transient")
        payload = obs.load_trace_file(str(tmp_path / "cache.trace.json"))
        assert obs.validate_chrome_trace(payload) == []
        spans = [e for e in payload["traceEvents"]
                 if e.get("name") == "batch:program"]
        assert len(spans) == 1
        assert spans[0]["args"]["program"] == "cache"
        assert "batch.backoff" in {e.get("name")
                                   for e in payload["traceEvents"]}


class TestTraceSlugCollisions:
    """Distinct program names that slug identically must not overwrite
    each other's trace files (regression: ``a/b`` vs ``a:b``)."""

    def test_serial_path_dedups(self, tmp_path):
        program = corpus_program("cache")
        run_batch([("a/b", program), ("a:b", program), ("a_b", program)],
                  trace_dir=str(tmp_path))
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["a_b-2.trace.json", "a_b-3.trace.json",
                         "a_b.trace.json"]

    def test_sharded_path_dedups(self, tmp_path):
        program = corpus_program("cache")
        run_batch([("a/b", program), ("a:b", program)],
                  trace_dir=str(tmp_path), jobs=2)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["a_b-2.trace.json", "a_b.trace.json"]

    def test_first_occurrence_keeps_bare_slug(self, tmp_path):
        from repro import obs

        program = corpus_program("cache")
        run_batch([("x/y", program), ("x_y", program)],
                  trace_dir=str(tmp_path))
        # input order decides who keeps the bare slug, and each file is
        # a valid trace of its own program
        payload = obs.load_trace_file(str(tmp_path / "x_y.trace.json"))
        assert obs.validate_chrome_trace(payload) == []


class TestShardedBatch:
    """``jobs=N`` fans the batch over a process pool; every program's
    state is derived from its name, so records match ``jobs=1``."""

    def test_records_in_input_order(self):
        names = list(corpus_names())
        result = run_batch(_corpus(*names), jobs=4)
        assert [r.program for r in result.records] == names

    def test_render_byte_identical_to_serial(self):
        def rendered(jobs):
            result = run_batch(_corpus(*corpus_names()), config="M-2obj",
                               jobs=jobs)
            for record in result.records:
                record.seconds = 0.0  # the only wall-clock field
            return result.render()

        assert rendered(1) == rendered(2)

    def test_jobs_one_matches_jobs_four(self):
        def outcome(jobs):
            result = run_batch(_corpus(*corpus_names()), jobs=jobs)
            return [(r.program, r.status, r.retries) for r in result.records]

        assert outcome(1) == outcome(4)

    def test_pool_keyword_rejected(self):
        """There is one pool kind (processes); ``pool=`` is gone."""
        with pytest.raises(TypeError, match="pool"):
            run_batch(_corpus("cache"), jobs=2, pool="thread")

    def test_pool_option_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--corpus", "cache", "--pool", "thread"])
        assert exc.value.code == 2
        assert "--pool" in capsys.readouterr().err

    def test_unpicklable_source_falls_back_to_parent(self):
        result = run_batch(
            [("lam", lambda: corpus_program("cache")),
             *_corpus("iterator")],
            jobs=2)
        assert [r.program for r in result.records] == ["lam", "iterator"]
        assert result.all_usable

    def test_loader_crash_still_isolated(self):
        def explode():
            raise RuntimeError("generator bug")

        result = run_batch([("bad", explode), *_corpus("cache")], jobs=2)
        assert [r.status for r in result.records] == ["failed", "ok"]

    def test_trace_dir_collects_worker_traces(self, tmp_path):
        from repro import obs

        run_batch(_corpus("cache", "iterator"), trace_dir=str(tmp_path),
                  jobs=2)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["cache.trace.json", "iterator.trace.json"]
        payload = obs.load_trace_file(str(tmp_path / "cache.trace.json"))
        assert obs.validate_chrome_trace(payload) == []
        names = {e.get("name") for e in payload["traceEvents"]}
        assert "batch:program" in names
        assert "phase:main" in names

    def test_governor_spec_enforced_in_workers(self):
        result = run_batch(
            _corpus("cache"), config="2obj", degrade=False, jobs=2,
            governor_spec=GovernorSpec(max_iterations=1, check_stride=1))
        record = result.records[0]
        assert record.status == "exhausted"
        assert record.exhaustion_cause == "work"

    def test_governor_factory_rejected(self):
        """Governors are built from the picklable ``governor_spec``."""
        with pytest.raises(TypeError, match="governor_factory"):
            run_batch(_corpus("cache"), governor_factory=lambda: None)

    def test_live_tracer_rejected(self):
        """Traces are collected per program with ``trace_dir``."""
        from repro import obs

        with pytest.raises(TypeError, match="tracer"):
            run_batch(_corpus("cache"), tracer=obs.Tracer(sinks=()))

    def test_ambient_plan_rejected(self):
        """One scoped plan would be shared by every program run on the
        calling thread, so the records would depend on the worker
        count."""
        plan = FaultPlan([FaultSpec(point="merge-boundary", times=1)])
        with faults.active(plan):
            with pytest.raises(ValueError, match="fault_spec"):
                run_batch(_corpus("cache"))


def _normalized(payload):
    """A batch report without its wall-clock fields (every key ending
    in ``seconds``, at any depth)."""
    if isinstance(payload, dict):
        return {key: _normalized(value) for key, value in payload.items()
                if not key.endswith("seconds")}
    if isinstance(payload, list):
        return [_normalized(value) for value in payload]
    return payload


class TestShardedFaultDeterminism:
    """A fault spec's firings are a pure function of (spec, seed,
    program name) — the same programs fault identically at any worker
    count."""

    SPEC = ("main-boundary:kind=transient:probability=0.5:times=2,"
            "merge-boundary:probability=0.3:times=1")

    def _outcome(self, jobs):
        result = run_batch(
            _corpus(*corpus_names()), config="M-2obj", jobs=jobs,
            backoff_seconds=0.0001, fault_spec=self.SPEC, fault_seed=7)
        return [(r.program, r.status, r.retries, r.degraded_from,
                 [round(d, 9) for d in r.backoff_delays])
                for r in result.records]

    def test_jobs_one_vs_jobs_four(self):
        first = self._outcome(1)
        assert first == self._outcome(4)
        # the spec actually bit somewhere, or the test proves nothing
        assert any(retries or degraded_from
                   for _, _, retries, degraded_from, _ in first)

    def test_repeatable_at_fixed_worker_count(self):
        assert self._outcome(2) == self._outcome(2)

    def test_times_one_identical_at_one_and_two_jobs(self):
        """A once-only fault fires once *per program*: with one shared
        plan it fired once per worker process instead."""
        def records(jobs):
            programs = [*_corpus(*corpus_names()),
                        ("luindex", load_profile("luindex", 0.4))]
            return _normalized(run_batch(
                programs, config="M-2obj", jobs=jobs,
                fault_spec="merge-boundary:times=1").to_dict())

        first = records(1)
        assert first == records(2)
        assert first["counts"] == {"degraded": len(corpus_names()) + 1}

    def test_different_fault_seed_changes_firings(self):
        base = self._outcome(2)
        other = run_batch(
            _corpus(*corpus_names()), config="M-2obj", jobs=2,
            backoff_seconds=0.0001, fault_spec=self.SPEC, fault_seed=8)
        reshaped = [(r.program, r.status, r.retries, r.degraded_from,
                     [round(d, 9) for d in r.backoff_delays])
                    for r in other.records]
        assert reshaped != base


class TestAcceptance:
    """Fault injection triggers every degradation path
    deterministically under a fixed seed while the batch completes."""

    def test_full_corpus_with_faults_completes(self):
        def outcome():
            result = run_batch(
                _corpus(*corpus_names()), config="M-2obj",
                backoff_seconds=0.001, seed=7, fault_seed=7,
                fault_spec="merge-boundary:times=1,main-boundary:times=1,"
                           "pre-boundary:kind=transient:times=1")
            return [(r.program, r.status, r.retries, r.degraded_from)
                    for r in result.records]

        first = outcome()
        assert first == outcome()
        assert len(first) == len(corpus_names())
        statuses = {status for _, status, _, _ in first}
        assert "degraded" in statuses  # faults bit somewhere
        assert "failed" not in statuses  # transient was retried

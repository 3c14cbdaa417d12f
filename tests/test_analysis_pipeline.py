"""Unit tests for analysis configuration parsing and the pipeline."""

import pytest

from repro.analysis import (
    PAPER_BASELINES,
    PAPER_CONFIGS,
    ResourceGovernor,
    parse_config,
    run_analysis,
    run_pre_analysis,
)


class TestConfigParsing:
    @pytest.mark.parametrize("name, heap, sensitivity", [
        ("ci", "alloc-site", "ci"),
        ("2obj", "alloc-site", "2obj"),
        ("M-3obj", "mahjong", "3obj"),
        ("T-2type", "alloc-type", "2type"),
        ("M-ci", "mahjong", "ci"),
        ("T-2cs", "alloc-type", "2cs"),
    ])
    def test_valid_names(self, name, heap, sensitivity):
        config = parse_config(name)
        assert config.heap == heap
        assert config.sensitivity == sensitivity
        assert str(config) == name

    @pytest.mark.parametrize("bad", ["M-", "X-2obj", "2objx", "m-2obj", ""])
    def test_invalid_names(self, bad):
        with pytest.raises(ValueError):
            parse_config(bad)

    @pytest.mark.parametrize("retired", ["2obj@set", "2obj@bitset",
                                         "2obj@nonum", "2obj@scc",
                                         "M-2obj@noscc"])
    def test_retired_suffixes_are_unknown_tokens(self, retired):
        """A name has no ``@`` suffixes any more: the retired backend,
        numbering and condensation suffixes read as part of an unknown
        sensitivity."""
        with pytest.raises(ValueError, match="unknown context sensitivity"):
            parse_config(retired)

    def test_needs_pre_analysis_only_for_mahjong(self):
        assert parse_config("M-2obj").needs_pre_analysis
        assert not parse_config("2obj").needs_pre_analysis
        assert not parse_config("T-2obj").needs_pre_analysis

    def test_paper_config_lists(self):
        assert len(PAPER_BASELINES) == 5
        assert len(PAPER_CONFIGS) == 10
        assert all(parse_config(c) for c in PAPER_CONFIGS)


class TestPipeline:
    def test_pre_analysis_artifacts(self, tiny_program):
        pre = run_pre_analysis(tiny_program)
        assert pre.result.selector_name == "ci"
        assert len(pre.fpg) > 0
        assert pre.merge.object_count_after <= pre.merge.object_count_before
        assert pre.total_seconds >= 0
        assert pre.abstraction.mom

    def test_mahjong_run_builds_pre_automatically(self, tiny_program):
        run = run_analysis(tiny_program, "M-2obj")
        assert run.pre is not None
        assert run.succeeded

    def test_pre_artifacts_are_reused_when_passed(self, tiny_program):
        pre = run_pre_analysis(tiny_program)
        run = run_analysis(tiny_program, "M-2obj", pre=pre)
        assert run.pre is pre

    def test_non_mahjong_run_has_no_pre(self, tiny_program):
        run = run_analysis(tiny_program, "2obj")
        assert run.pre is None

    def test_metrics_keys(self, tiny_program):
        metrics = run_analysis(tiny_program, "M-2cs").metrics()
        for key in ("analysis", "main_seconds", "call_graph_edges",
                    "poly_call_sites", "may_fail_casts", "abstract_objects",
                    "pre_seconds"):
            assert key in metrics
        assert metrics["analysis"] == "M-2cs"

    def test_metrics_cached(self, tiny_program):
        run = run_analysis(tiny_program, "ci")
        assert run.metrics() is run.metrics()

    def test_timeout_marks_run(self, tiny_program):
        run = run_analysis(tiny_program, "2obj", timeout_seconds=0.0)
        assert run.timed_out
        assert run.status == "exhausted"
        assert not run.succeeded
        metrics = run.metrics()
        assert metrics["timed_out"] is True
        assert "call_graph_edges" not in metrics

    def test_mahjong_uses_fewer_objects(self, tiny_program):
        base = run_analysis(tiny_program, "2obj").metrics()
        mahjong = run_analysis(tiny_program, "M-2obj").metrics()
        assert mahjong["abstract_objects"] < base["abstract_objects"]

    def test_alloc_type_uses_fewest_site_keys(self, tiny_program):
        t_run = run_analysis(tiny_program, "T-ci").metrics()
        ci_run = run_analysis(tiny_program, "ci").metrics()
        assert t_run["abstract_objects"] <= ci_run["abstract_objects"]


class TestExhaustionHandling:
    def test_pre_phase_timeout_is_caught_and_attributed(self, tiny_program):
        # a zero budget expires inside the ci pre-analysis solve; the
        # exhaustion must not escape run_analysis as a raw exception
        run = run_analysis(tiny_program, "M-2obj", timeout_seconds=0.0)
        assert run.timed_out
        assert not run.succeeded
        assert run.failed_phase == "pre"
        assert run.exhaustion_cause == "time"
        metrics = run.metrics()
        assert metrics["failed_phase"] == "pre"
        assert metrics["attempts"][0]["config"] == "M-2obj"

    def test_timeout_and_governor_are_exclusive(self, tiny_program):
        governor = ResourceGovernor.from_limits(wall_seconds=60.0)
        with pytest.raises(ValueError, match="not both"):
            run_analysis(tiny_program, "ci", timeout_seconds=1,
                         governor=governor)

    def test_normal_run_metrics_carry_no_provenance_keys(self, tiny_program):
        run = run_analysis(tiny_program, "M-2obj")
        assert run.status == "ok"
        metrics = run.metrics()
        for key in ("degraded_from", "failed_phase", "exhaustion_cause",
                    "attempts"):
            assert key not in metrics


class TestDegradationLadder:
    def test_ladder_off_by_default(self, tiny_program):
        run = run_analysis(tiny_program, "2obj", timeout_seconds=0.0)
        assert run.timed_out
        assert run.degraded_from is None

    def test_pre_timeout_with_ladder_reaches_bottom(self, tiny_program):
        # a zero wall-clock budget kills every rung, including the
        # allocation-site fallback and ci: the run stays usable-shaped
        # (provenance-complete) but timed out
        run = run_analysis(tiny_program, "M-2obj", timeout_seconds=0.0,
                           degrade=True)
        assert run.timed_out
        assert run.status == "exhausted"
        assert run.degraded_from == "M-2obj"
        assert [a.config for a in run.attempts] == [
            "M-2obj", "2obj", "2type", "ci"]
        assert all(a.cause == "time" for a in run.attempts)

    def test_explicit_ladder_sequence(self, tiny_program):
        from repro import faults
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec(point="main-boundary", times=1)])
        with faults.active(plan):
            run = run_analysis(tiny_program, "M-2obj",
                               degrade="T-2obj,ci")
        assert run.degraded
        assert run.status == "degraded"
        assert run.config.name == "T-2obj"
        assert run.degraded_from == "M-2obj"

    def test_rescued_run_metrics_are_complete(self, tiny_program):
        from repro import faults
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec(point="main-boundary", times=1)])
        with faults.active(plan):
            run = run_analysis(tiny_program, "M-3obj", degrade=True)
        assert run.degraded
        assert run.status == "degraded"
        assert not run.timed_out
        metrics = run.metrics()
        # the acceptance bar: full client metrics plus provenance
        for key in ("call_graph_edges", "poly_call_sites", "may_fail_casts",
                    "abstract_objects", "degraded_from", "attempts"):
            assert key in metrics
        assert metrics["degraded_from"] == "M-3obj"
        assert metrics["analysis"] == "M-2obj"

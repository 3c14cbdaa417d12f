"""Deterministic fault injection: every injection point, every fault
kind, and every degradation path it triggers."""

import threading

import pytest

from repro import faults
from repro.analysis.pipeline import (
    coarser_sensitivity,
    degradation_chain,
    next_rung,
    run_analysis,
    run_pre_analysis,
)
from repro.core.fpg import FPGIntegrityError
from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedExhaustion,
    TransientFault,
)
from repro.interp import interpret
from repro.resources import TimeBudgetExceeded

from tests.test_soundness_oracle import assert_trace_covered


class TestFaultSpecParsing:
    def test_rejects_unknown_point(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultSpec(point="gc-pause")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(point="main-boundary", kind="explode")

    def test_parse_spec_string(self):
        plan = FaultPlan.parse(
            "main-boundary:kind=crash,solve-iteration:at=64:times=2")
        assert plan.specs["main-boundary"].kind == "crash"
        assert plan.specs["solve-iteration"].at == 64
        assert plan.specs["solve-iteration"].times == 2

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan.parse("main-boundary,main-boundary")

    def test_parse_rejects_malformed_field(self):
        with pytest.raises(ValueError, match="malformed fault field"):
            FaultPlan.parse("main-boundary:kind")


class TestFiringSemantics:
    def test_times_limits_activations(self):
        plan = FaultPlan([FaultSpec(point="main-boundary", times=2)])
        for _ in range(2):
            with pytest.raises(InjectedExhaustion):
                plan.fire("main-boundary")
        plan.fire("main-boundary")  # quiet now
        assert plan.remaining("main-boundary") == 0

    def test_unlimited_with_negative_times(self):
        plan = FaultPlan([FaultSpec(point="main-boundary", times=-1)])
        for _ in range(5):
            with pytest.raises(InjectedExhaustion):
                plan.fire("main-boundary")
        assert plan.remaining("main-boundary") == -1

    def test_unarmed_points_are_noops(self):
        plan = FaultPlan([])
        plan.fire("main-boundary")
        plan.check_iteration(10**6)
        assert plan.spike_bytes() == 0

    def test_kinds_raise_their_exception(self):
        for kind, exc_type in (("exhaust", InjectedExhaustion),
                               ("transient", TransientFault),
                               ("crash", InjectedCrash)):
            plan = FaultPlan([FaultSpec(point="pre-boundary", kind=kind)])
            with pytest.raises(exc_type) as info:
                plan.fire("pre-boundary", phase="pre")
            assert info.value.point == "pre-boundary"
            assert info.value.phase == "pre"

    def test_injected_exhaustion_is_budget_expiry(self):
        assert issubclass(InjectedExhaustion, TimeBudgetExceeded)

    def test_probability_is_seed_deterministic(self):
        def firings(seed):
            plan = FaultPlan(
                [FaultSpec(point="main-boundary", times=-1, probability=0.5)],
                seed=seed)
            fired = []
            for i in range(32):
                try:
                    plan.fire("main-boundary")
                    fired.append(False)
                except InjectedExhaustion:
                    fired.append(True)
            return fired

        assert firings(1) == firings(1)
        assert firings(1) != firings(2)
        assert any(firings(1)) and not all(firings(1))

    def test_check_iteration_honors_at_and_phase(self):
        plan = FaultPlan([FaultSpec(point="solve-iteration", at=10,
                                    phase="main")])
        plan.check_iteration(9, phase="main")       # below threshold
        plan.check_iteration(10, phase="pre")       # wrong phase
        with pytest.raises(InjectedExhaustion) as info:
            plan.check_iteration(10, phase="main")
        assert info.value.iterations == 10

    def test_log_records_firings(self):
        plan = FaultPlan([FaultSpec(point="memory-spike", bytes=123)])
        assert plan.spike_bytes() == 123
        assert plan.log == [("memory-spike", "bytes=123")]

    def test_spike_is_sticky_like_a_watermark(self):
        # peak-RSS never comes back down, so neither does the spike:
        # once the activations run out the plan keeps reporting the
        # high-water mark
        plan = FaultPlan([FaultSpec(point="memory-spike", times=1,
                                    bytes=1 << 30)])
        assert plan.spike_bytes() == 1 << 30
        assert plan.spike_bytes() == 1 << 30  # activation spent, still high
        assert plan.remaining("memory-spike") == 0
        assert plan.spiked_bytes == 1 << 30  # no-consume property

    def test_spike_logs_only_on_growth(self):
        plan = FaultPlan([FaultSpec(point="memory-spike", times=-1,
                                    bytes=1 << 20)])
        plan.spike_bytes()
        plan.spike_bytes()
        plan.spike_bytes()
        assert plan.log == [("memory-spike", f"bytes={1 << 20}")]

    def test_spiked_bytes_does_not_consume_activations(self):
        plan = FaultPlan([FaultSpec(point="memory-spike", times=1,
                                    bytes=1 << 20)])
        assert plan.spiked_bytes == 0
        assert plan.remaining("memory-spike") == 1  # peeking is free
        assert plan.spike_bytes() == 1 << 20
        assert plan.spiked_bytes == 1 << 20


class TestActivation:
    """There is no process-wide plan: :func:`faults.active` scopes one
    to the calling thread."""

    def test_active_scopes_and_restores(self):
        outer, inner = FaultPlan([]), FaultPlan([])
        assert faults.current_plan() is None
        with faults.active(outer):
            with faults.active(inner) as scoped:
                assert scoped is inner
                assert faults.current_plan() is inner
            assert faults.current_plan() is outer
        assert faults.current_plan() is None

    def test_none_is_a_no_op_scope(self):
        plan = FaultPlan([])
        with faults.active(plan):
            with faults.active(None) as scoped:
                assert scoped is None
                assert faults.current_plan() is plan
        assert faults.current_plan() is None

    def test_plan_does_not_cross_threads(self):
        plan = FaultPlan([FaultSpec(point="main-boundary", times=-1)])
        seen = []

        def other_thread():
            seen.append(faults.current_plan())
            faults.fire("main-boundary")  # no plan here: must not raise
            seen.append("fired-quietly")

        with faults.active(plan):
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert faults.current_plan() is plan
            with pytest.raises(InjectedExhaustion):
                faults.fire("main-boundary")
        assert seen == [None, "fired-quietly"]
        assert plan.log == [("main-boundary", "exhaust")]


class TestDegradationPaths:
    """Every injection point triggers its degradation path, and the
    rescued result stays sound."""

    def test_main_boundary_steps_down_ladder(self, tiny_program):
        plan = FaultPlan([FaultSpec(point="main-boundary", times=1)])
        with faults.active(plan):
            run = run_analysis(tiny_program, "M-2obj", degrade=True)
        assert run.degraded
        assert run.degraded_from == "M-2obj"
        assert run.config.name == "M-2type"
        assert [a.config for a in run.attempts] == ["M-2obj", "M-2type"]
        assert run.attempts[0].cause == "time"
        assert not run.attempts[1].cause

    def test_merge_boundary_drops_mahjong_heap(self, tiny_program):
        plan = FaultPlan([FaultSpec(point="merge-boundary", times=1)])
        with faults.active(plan):
            run = run_analysis(tiny_program, "M-2obj",
                               degrade=True)
        assert run.degraded
        # pre-phase exhaustion keeps the sensitivity, drops "M-"
        assert run.config.name == "2obj"
        assert run.attempts[0].phase == "merge"

    @pytest.mark.parametrize("point,phase", [("pre-boundary", "pre"),
                                             ("fpg-boundary", "fpg")])
    def test_pre_and_fpg_boundaries(self, tiny_program, point, phase):
        plan = FaultPlan([FaultSpec(point=point, times=1)])
        with faults.active(plan):
            run = run_analysis(tiny_program, "M-2obj",
                               degrade=True)
        assert run.degraded
        assert run.config.name == "2obj"
        assert run.attempts[0].phase == phase

    def test_solve_iteration_fault(self, tiny_program):
        plan = FaultPlan(
            [FaultSpec(point="solve-iteration", at=2, phase="main")])
        with faults.active(plan):
            run = run_analysis(tiny_program, "2obj",
                               degrade=True)
        assert run.degraded
        assert run.attempts[0].cause == "time"
        assert "solve-iteration" in run.attempts[0].detail

    def test_memory_spike_fault(self, tiny_program):
        from repro.analysis.governor import ResourceGovernor

        plan = FaultPlan([FaultSpec(point="memory-spike", times=1)])
        governor = ResourceGovernor.from_limits(memory_mb=1 << 14,
                                                check_stride=1)
        with faults.active(plan):
            run = run_analysis(tiny_program, "2obj",
                               governor=governor, degrade=True)
        # the 1 TiB spike blows the 16 GiB budget exactly once
        assert run.degraded
        assert run.attempts[0].cause == "memory"

    def test_fpg_corrupt_detected_and_rescued(self, tiny_program):
        plan = FaultPlan([FaultSpec(point="fpg-corrupt", times=1)])
        with faults.active(plan):
            run = run_analysis(tiny_program, "M-2obj",
                               degrade=True)
        assert run.degraded
        assert run.config.name == "2obj"
        assert run.attempts[0].cause == "corrupt"
        assert run.attempts[0].phase == "fpg"

    def test_fpg_corrupt_raises_without_ladder(self, tiny_program):
        plan = FaultPlan([FaultSpec(point="fpg-corrupt", times=1)])
        with faults.active(plan):
            with pytest.raises(FPGIntegrityError):
                run_pre_analysis(tiny_program)

    def test_exhaust_every_rung(self, tiny_program):
        # enough activations to burn M-3obj and the whole chain below it
        chain_length = 1 + len(degradation_chain("M-3obj"))
        plan = FaultPlan([FaultSpec(point="main-boundary",
                                    times=chain_length)])
        with faults.active(plan):
            run = run_analysis(tiny_program, "M-3obj", degrade=True)
        assert run.timed_out
        assert not run.succeeded
        assert run.degraded_from == "M-3obj"
        assert [a.config for a in run.attempts] == [
            "M-3obj", "M-2obj", "M-2type", "ci"]

    def test_transient_and_crash_escape_the_ladder(self, tiny_program):
        for kind, exc_type in (("transient", TransientFault),
                               ("crash", InjectedCrash)):
            plan = FaultPlan([FaultSpec(point="main-boundary", kind=kind)])
            with faults.active(plan):
                with pytest.raises(exc_type):
                    run_analysis(tiny_program, "2obj",
                                 degrade=True)

    def test_degraded_result_stays_sound(self, tiny_program):
        trace = interpret(tiny_program)
        plan = FaultPlan([FaultSpec(point="main-boundary", times=1)])
        with faults.active(plan):
            run = run_analysis(tiny_program, "M-2obj",
                               degrade=True)
        assert run.degraded
        assert_trace_covered(tiny_program, trace, run.result)

    def test_determinism_under_fixed_seed(self, tiny_program):
        def rescued_config():
            plan = FaultPlan(
                [FaultSpec(point="main-boundary", times=1),
                 FaultSpec(point="fpg-corrupt", times=1)],
                seed=42)
            with faults.active(plan):
                run = run_analysis(tiny_program, "M-2obj",
                                   degrade=True)
            return run.config.name, [a.config for a in run.attempts], plan.log

        assert rescued_config() == rescued_config()


class TestLadderShape:
    def test_coarser_sensitivity_steps(self):
        assert coarser_sensitivity("3obj") == "2obj"
        assert coarser_sensitivity("2obj") == "2type"
        assert coarser_sensitivity("3type") == "2type"
        assert coarser_sensitivity("2type") == "ci"
        assert coarser_sensitivity("3cs") == "2cs"
        assert coarser_sensitivity("2cs") == "ci"
        assert coarser_sensitivity("ci") is None
        assert coarser_sensitivity("weird") is None

    def test_next_rung_main_phase(self):
        assert next_rung("M-3obj", "main") == "M-2obj"
        assert next_rung("M-2obj", "main") == "M-2type"
        assert next_rung("M-2type", "main") == "ci"
        assert next_rung("T-2obj", "main") == "T-2type"
        assert next_rung("2obj", "main") == "2type"
        assert next_rung("ci", "main") is None

    def test_next_rung_pre_phase_drops_heap(self):
        for phase in ("pre", "fpg", "merge"):
            assert next_rung("M-2obj", phase) == "2obj"
        # non-mahjong configs have no pre-analysis to drop
        assert next_rung("2obj", "pre") == "2type"

    def test_degradation_chain(self):
        assert degradation_chain("M-3obj") == ["M-2obj", "M-2type", "ci"]
        assert degradation_chain("2cs") == ["ci"]
        assert degradation_chain("ci") == []

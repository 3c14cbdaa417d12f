"""The resource governor: per-phase budgets, the exhaustion taxonomy,
and solver integration."""

import time

import pytest

from repro import faults
from repro.analysis.governor import (
    PHASES,
    MemoryBudgetExceeded,
    PhaseBudget,
    ResourceExhausted,
    ResourceGovernor,
    TimeBudgetExceeded,
    WorkBudgetExceeded,
)
from repro.analysis.pipeline import run_analysis, run_pre_analysis
from repro.faults import FaultPlan, FaultSpec
from repro.pta.solver import Solver
from repro.resources import memory_watermark_bytes


class TestPhaseBudget:
    def test_unbounded_by_default(self):
        assert PhaseBudget().unbounded

    def test_any_axis_makes_it_bounded(self):
        assert not PhaseBudget(wall_seconds=1.0).unbounded
        assert not PhaseBudget(memory_bytes=1).unbounded
        assert not PhaseBudget(max_iterations=1).unbounded
        assert not PhaseBudget(max_objects=1).unbounded


class TestGovernorConstruction:
    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unknown phase"):
            ResourceGovernor(budgets={"link": PhaseBudget()})

    def test_rejects_non_power_of_two_stride(self):
        with pytest.raises(ValueError, match="power of two"):
            ResourceGovernor(check_stride=3)

    def test_from_limits_applies_default_everywhere(self):
        governor = ResourceGovernor.from_limits(max_iterations=7,
                                                memory_mb=1.0)
        for phase in PHASES:
            budget = governor._budget_for(phase)
            assert budget.max_iterations == 7
            assert budget.memory_bytes == 1 << 20


class TestChecks:
    def test_no_budget_no_raise(self):
        governor = ResourceGovernor()
        with governor.phase("main"):
            governor.check(iterations=10**9)

    def test_wall_clock_budget(self):
        governor = ResourceGovernor(
            budgets={"main": PhaseBudget(wall_seconds=0.0)})
        with pytest.raises(TimeBudgetExceeded) as info:
            with governor.phase("main"):
                time.sleep(0.002)
                governor.check()
        assert info.value.phase == "main"
        assert info.value.cause == "time"

    def test_iteration_budget(self):
        governor = ResourceGovernor(
            budgets={"main": PhaseBudget(max_iterations=100)})
        with pytest.raises(WorkBudgetExceeded) as info:
            with governor.phase("main"):
                governor.check(iterations=101)
        assert info.value.observed == 101
        assert info.value.budget == 100

    def test_object_guard(self):
        governor = ResourceGovernor(
            budgets={"main": PhaseBudget(max_objects=5)})
        with governor.phase("main"):
            governor.check(objects=5)
            with pytest.raises(WorkBudgetExceeded):
                governor.check(objects=6)

    def test_memory_budget_ignores_preexisting_watermark(self):
        # the process watermark is far above the budget already, but a
        # fresh governor samples it as the baseline — only *growth*
        # beyond it counts against the budget
        assert memory_watermark_bytes() > (1 << 20)
        governor = ResourceGovernor(
            budgets={"main": PhaseBudget(memory_bytes=1 << 20)})
        with governor.phase("main"):
            governor.check()  # must not raise

    def test_memory_budget_is_delta_from_baseline(self):
        # a spike injected *after* the baseline sample is growth and
        # must trip the budget; ``observed`` reports the delta
        governor = ResourceGovernor(
            budgets={"main": PhaseBudget(memory_bytes=1 << 20)})
        plan = FaultPlan([FaultSpec(point="memory-spike", bytes=1 << 30)])
        with faults.active(plan):
            with pytest.raises(MemoryBudgetExceeded) as info:
                with governor.phase("main"):
                    governor.check()
        assert info.value.cause == "memory"
        assert info.value.observed >= 1 << 30

    def test_begin_attempt_rebaselines_after_trip(self):
        # the watermark never falls, so after one trip a new attempt
        # must re-sample its baseline (including the sticky spike) or
        # it would spuriously exhaust forever
        governor = ResourceGovernor(
            budgets={"main": PhaseBudget(memory_bytes=1 << 20)})
        plan = FaultPlan([FaultSpec(point="memory-spike", times=-1,
                                    bytes=1 << 30)])
        with faults.active(plan):
            with pytest.raises(MemoryBudgetExceeded):
                with governor.phase("main"):
                    governor.check()
            governor.begin_attempt()
            with governor.phase("main"):
                governor.check()  # delta against the new baseline ~ 0

    def test_phase_boundary_check_catches_unchecked_phases(self):
        # fpg/merge have no internal check sites; the budget must still
        # bite at phase exit
        governor = ResourceGovernor(
            budgets={"merge": PhaseBudget(wall_seconds=0.0)})
        with pytest.raises(TimeBudgetExceeded) as info:
            with governor.phase("merge"):
                time.sleep(0.002)
        assert info.value.phase == "merge"

    def test_exhaustion_is_phase_attributed(self):
        governor = ResourceGovernor(
            default=PhaseBudget(max_iterations=1))
        with pytest.raises(ResourceExhausted) as info:
            with governor.phase("pre"):
                governor.check(iterations=2)
        assert info.value.phase == "pre"


class TestTaxonomy:
    def test_resource_tags(self):
        assert TimeBudgetExceeded("t").resource == "time"
        assert MemoryBudgetExceeded("m").resource == "memory"
        assert WorkBudgetExceeded("w").resource == "work"

    def test_all_are_resource_exhausted(self):
        for cls in (TimeBudgetExceeded, MemoryBudgetExceeded,
                    WorkBudgetExceeded):
            assert issubclass(cls, ResourceExhausted)


class TestSolverIntegration:
    def test_iteration_budget_stops_solver(self, tiny_program):
        governor = ResourceGovernor(
            budgets={"main": PhaseBudget(max_iterations=4)},
            check_stride=1)
        with pytest.raises(WorkBudgetExceeded) as info:
            Solver(tiny_program, governor=governor).solve()
        assert info.value.phase == "main"
        assert info.value.iterations >= 4

    def test_unbudgeted_solver_completes(self, tiny_program):
        governor = ResourceGovernor(check_stride=1)
        result = Solver(tiny_program, governor=governor).solve()
        assert result.object_count > 0

    def test_pre_analysis_budget_attributed_to_pre(self, tiny_program):
        governor = ResourceGovernor(
            budgets={"pre": PhaseBudget(max_iterations=2)},
            check_stride=1)
        with pytest.raises(WorkBudgetExceeded) as info:
            run_pre_analysis(tiny_program, governor=governor)
        assert info.value.phase == "pre"

    def test_run_analysis_absorbs_governor_exhaustion(self, tiny_program):
        governor = ResourceGovernor(
            budgets={"main": PhaseBudget(max_iterations=2)},
            check_stride=1)
        run = run_analysis(tiny_program, "2obj", governor=governor)
        assert run.timed_out
        assert run.result is None
        assert run.failed_phase == "main"
        assert run.exhaustion_cause == "work"

    def test_ladder_rescues_rung_after_memory_trip(self, tiny_program):
        """Regression: the memory watermark has peak-RSS semantics (it
        never decreases), so budgeting the absolute value let one
        memory exhaustion poison every later degradation rung — the
        always-armed spike below kept every rung's sample inflated, and
        the run could never be rescued.  Per-attempt delta budgeting
        (``begin_attempt`` re-baselining) makes the second rung's own
        growth the thing that is budgeted, and the ladder recovers."""
        governor = ResourceGovernor(
            budgets={"main": PhaseBudget(memory_bytes=1 << 30)},
            check_stride=1)
        plan = FaultPlan([FaultSpec(point="memory-spike", times=-1,
                                    bytes=1 << 40)])
        with faults.active(plan):
            run = run_analysis(tiny_program, "2obj", governor=governor,
                               degrade=True)
        assert run.degraded
        assert run.result is not None
        assert run.degraded_from == "2obj"
        assert run.config.name == "2type"
        assert len(run.attempts) == 2
        assert run.attempts[0].cause == "memory"
        assert run.attempts[0].phase == "main"
        assert run.attempts[1].succeeded

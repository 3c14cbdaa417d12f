"""The paper's headline claims as executable assertions.

These are the slowest tests in the suite (a few seconds total): they
run real profile workloads far enough to watch the scalability cliff
and the speedup appear, pinning the Table 2 *shape* independent of the
bench harness.
"""

import pytest

from repro.bench.runners import ProgramUnderBench, interleaved_best_of
from repro.core.fpg import build_fpg
from repro.core.merging import merge_type_consistent_objects
from repro.pta.context import selector_for
from repro.pta.solver import Solver


@pytest.fixture(scope="module")
def pmd():
    return ProgramUnderBench.load("pmd", scale=0.5)


@pytest.fixture(scope="module")
def lusearch():
    return ProgramUnderBench.load("lusearch", scale=0.5)


class TestScalabilityCliff:
    def test_3obj_scales_on_tier1_pmd(self, pmd):
        run = pmd.run("3obj", budget=60)
        assert not run.timed_out
        assert run.main_seconds < 60

    def test_mahjong_rescues_tier2_lusearch(self, lusearch):
        # at half scale the full analysis still blows past a small
        # budget while M-3obj finishes comfortably inside it
        full = lusearch.run("3obj", budget=1.5)
        rescued = lusearch.run("M-3obj", budget=1.5)
        assert full.timed_out
        assert not rescued.timed_out


class TestSpeedupClaim:
    def test_m3obj_order_of_magnitude_faster(self, pmd):
        base = pmd.run("3obj", budget=120)
        mahjong = pmd.run("M-3obj", budget=120)
        assert not base.timed_out and not mahjong.timed_out
        speedup = base.main_seconds / max(mahjong.main_seconds, 1e-4)
        assert speedup > 10  # paper: 131x average on the scalable four

    def test_precision_identical_where_both_complete(self, pmd):
        base = pmd.run("3obj", budget=120).metrics()
        mahjong = pmd.run("M-3obj", budget=120).metrics()
        for metric in ("call_graph_edges", "poly_call_sites",
                       "may_fail_casts"):
            assert base[metric] == mahjong[metric]


class TestReductionClaim:
    def test_object_reduction_in_paper_regime(self, pmd, lusearch):
        # paper: 62% average reduction; profiles are calibrated to ~60%
        for under in (pmd, lusearch):
            reduction = under.pre.merge.reduction
            assert 0.40 < reduction < 0.80, under.name


class TestPreAnalysisIsLightweight:
    def test_mahjong_phase_is_fraction_of_ci(self, pmd):
        """FPG construction and the merge each cost less than the ci
        solve they follow.  The phases take milliseconds, so each one is
        timed against the ci solve as best of interleaved
        ``process_time`` runs: a stall on a loaded host cannot land on
        one side alone."""
        pre = pmd.pre

        def ci_solve():
            return Solver(pmd.program, selector_for("ci")).solve()

        phases = {
            "fpg": lambda: build_fpg(pre.result),
            "merge": lambda: merge_type_consistent_objects(pre.fpg),
        }
        for name, phase in phases.items():
            (ci_s, _), (phase_s, _) = interleaved_best_of(
                lambda: ci_solve, lambda: phase, lambda work: work(),
                repeats=5)
            assert phase_s < ci_s, (name, phase_s, ci_s)

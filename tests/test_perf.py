"""Unit tests for the perf instrumentation (repro.obs.metrics) and its
wiring into the solver and the shared-automata universe."""

from __future__ import annotations

from repro.analysis import run_analysis, run_pre_analysis
from repro.obs.metrics import PerfRecorder, null_recorder
from repro.pta.solver import Solver


class TestPerfRecorder:
    def test_counters_accumulate(self):
        perf = PerfRecorder()
        perf.incr("a")
        perf.incr("a", 4)
        assert perf.counters == {"a": 5}

    def test_phase_timer_accumulates(self):
        perf = PerfRecorder()
        with perf.phase("p"):
            pass
        with perf.phase("p"):
            pass
        assert perf.timers["p"] >= 0.0
        perf.add_time("p", 1.0)
        assert perf.timers["p"] >= 1.0

    def test_gauge_keeps_high_water(self):
        perf = PerfRecorder()
        perf.gauge_max("g", 10)
        perf.gauge_max("g", 3)
        perf.gauge_max("g", 12)
        assert perf.gauges["g"] == 12

    def test_merge(self):
        a, b = PerfRecorder(), PerfRecorder()
        a.incr("c", 1)
        b.incr("c", 2)
        a.add_time("t", 0.5)
        b.add_time("t", 0.25)
        a.gauge_max("g", 7)
        b.gauge_max("g", 9)
        a.merge(b)
        assert a.counters["c"] == 3
        assert a.timers["t"] == 0.75
        assert a.gauges["g"] == 9

    def test_snapshot_shape_and_order(self):
        perf = PerfRecorder()
        perf.incr("z")
        perf.incr("a")
        perf.add_time("t", 0.125)
        perf.gauge_max("g", 2)
        snap = perf.snapshot()
        assert list(snap) == ["counter.a", "counter.z", "seconds.t", "peak.g"]
        assert snap["seconds.t"] == 0.125
        rendered = perf.render("title")
        assert rendered.startswith("title")
        assert "counter.a = 1" in rendered

    def test_clear(self):
        perf = PerfRecorder()
        perf.incr("c")
        perf.clear()
        assert perf.snapshot() == {}

    def test_null_recorder_is_none(self):
        assert null_recorder() is None


class TestSolverWiring:
    def test_solver_records(self, figure1_program):
        perf = PerfRecorder()
        Solver(figure1_program, perf=perf).solve()
        snap = perf.snapshot()
        assert snap["counter.pta.iterations"] > 0
        assert snap["counter.pta.facts_propagated"] > 0
        assert snap["seconds.pta.solve"] >= 0
        assert snap["peak.pta.nodes"] > 0
        assert snap["peak.pta.pts_size"] >= 1

    def test_pipeline_records_phases(self, figure1_program):
        perf = PerfRecorder()
        pre = run_pre_analysis(figure1_program, perf=perf)
        run_analysis(figure1_program, "M-2obj", pre=pre, perf=perf)
        snap = perf.snapshot()
        assert "seconds.pre.fpg" in snap
        assert "seconds.pre.mahjong" in snap
        assert "peak.automata.states" in snap
        assert snap["counter.automata.roots"] >= 1
        # the pre-analysis and the main solve both fold into pta.*
        assert snap["counter.pta.iterations"] > 0

    def test_uninstrumented_solve_has_no_recorder(self, figure1_program):
        solver = Solver(figure1_program)
        solver.solve()
        assert solver.perf is None

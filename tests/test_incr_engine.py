"""The incremental engine's byte-identity contract: a warm re-solve
changes *work*, never the answer.

Differentials run {cold, incremental} under both solver loops (SCC on
and off) and assert ``protocol.result_digest`` equality, alongside the
paths that route around the warm start (``REPRO_INCR=off``, structural
edits, MAHJONG heaps, a warm start that does not translate) and a
hypothesis edit-sequence property."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pipeline import run_analysis
from repro.incr import (
    IncrementalBase,
    IncrementalSession,
    perturb_method,
    pick_editable_method,
    prepare_warm_start,
)
from repro.obs.metrics import PerfRecorder
from repro.pta.context import EMPTY_CONTEXT, selector_for
from repro.pta.solver import Solver, WarmStart
from repro.serve.protocol import result_digest
from repro.workloads import corpus_program, load_profile

from tests.program_strategies import ir_programs

PROGRAMS = {
    "listeners": lambda: corpus_program("listeners"),
    "cache": lambda: corpus_program("cache"),
    "antlr-0.3": lambda: load_profile("antlr", 0.3),
}


def _digest(run):
    assert run.result is not None
    return result_digest(run.result)


class TestWarmColdDifferential:
    """The acceptance matrix: >=3 programs x {ci, 2obj} x both solver
    loops, incremental vs cold, digests byte-identical."""

    @pytest.mark.parametrize("program_name", sorted(PROGRAMS))
    @pytest.mark.parametrize("config", ["ci", "2obj"])
    @pytest.mark.parametrize("scc", ["on", "off"])
    def test_digest_identity(self, monkeypatch, program_name, config, scc):
        monkeypatch.setenv("REPRO_SCC", scc)
        program = PROGRAMS[program_name]()
        base_run = run_analysis(program, config)
        edited = perturb_method(
            program, pick_editable_method(program, seed=3,
                                          exclude_entry=True), seed=3)
        # enabled=True pins the warm path regardless of the ambient
        # REPRO_INCR (CI runs this file with the knob off too)
        warm_run = run_analysis(
            edited, config,
            incremental=IncrementalBase(program, base_run, enabled=True))
        cold_run = run_analysis(edited, config)
        assert warm_run.incr is not None
        assert warm_run.incr["mode"] == "warm", warm_run.incr
        assert _digest(warm_run) == _digest(cold_run)

    def test_warm_solve_does_less_work(self):
        """The savings half of the contract, measured at the solver:
        fewer worklist pops and almost no re-propagated facts."""
        program = load_profile("antlr", 0.3)
        base = Solver(program, selector_for("2obj")).solve()
        edited = perturb_method(
            program, pick_editable_method(program, seed=3,
                                          exclude_entry=True), seed=3)
        warm_start = prepare_warm_start(base, edited)
        assert warm_start is not None
        cold = Solver(edited, selector_for("2obj"))
        cold_result = cold.solve()
        warm = Solver(edited, selector_for("2obj"), warm_start=warm_start)
        warm_result = warm.solve()
        assert result_digest(warm_result) == result_digest(cold_result)
        assert warm.iterations < cold.iterations
        assert (warm.counters["facts_propagated"]
                < cold.counters["facts_propagated"] // 10)
        assert warm.counters["warm_pairs"] > 0
        assert warm.counters["warm_seed_facts"] > 0


class TestFallbackRouting:
    def _base(self, config="ci"):
        program = corpus_program("listeners")
        return program, run_analysis(program, config)

    def _edit(self, program):
        return perturb_method(
            program, pick_editable_method(program, seed=3,
                                          exclude_entry=True), seed=3)

    def test_env_off_forces_cold(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCR", "off")
        program, base_run = self._base()
        run = run_analysis(self._edit(program), "ci",
                           incremental=IncrementalBase(program, base_run))
        assert run.incr == {"mode": "cold", "reason": "disabled"}

    def test_explicit_enable_beats_env_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCR", "off")
        program, base_run = self._base()
        run = run_analysis(
            self._edit(program), "ci",
            incremental=IncrementalBase(program, base_run, enabled=True))
        assert run.incr is not None and run.incr["mode"] == "warm"

    def test_structural_edit_forces_cold(self):
        program, base_run = self._base()
        from repro.frontend import parse_program

        structural = parse_program("""
class Extra { method m() { return this; } }
main { e = new Extra(); f = e.m(); }
""")
        run = run_analysis(
            structural, "ci",
            incremental=IncrementalBase(program, base_run, enabled=True))
        assert run.incr is not None
        assert run.incr["mode"] == "cold"
        assert "structural" in run.incr["reason"]
        assert _digest(run) == _digest(run_analysis(structural, "ci"))

    def test_mahjong_heap_is_not_warmable(self):
        program, base_run = self._base("M-2obj")
        run = run_analysis(
            self._edit(program), "M-2obj",
            incremental=IncrementalBase(program, base_run, enabled=True))
        assert run.incr is not None
        assert run.incr["mode"] == "cold"
        assert "not warmable" in run.incr["reason"]

    def test_config_mismatch_forces_cold(self):
        program, base_run = self._base("ci")
        run = run_analysis(
            self._edit(program), "2obj",
            incremental=IncrementalBase(program, base_run, enabled=True))
        assert run.incr is not None
        assert run.incr["mode"] == "cold"

    def test_warm_start_mismatch_falls_back_cold(self, monkeypatch,
                                                 tiny_program):
        """A warm start naming a method the program lacks aborts the
        warm solve; the attempt re-solves cold, and only the cold solve's
        counters reach the run's recorder."""
        import repro.incr.engine as engine

        bogus = WarmStart(pairs=((EMPTY_CONTEXT, "Ghost.missing"),),
                          objects=(), seeds=())
        monkeypatch.setattr(engine, "prepare_warm_start",
                            lambda *args: bogus)
        base_run = run_analysis(tiny_program, "2obj")
        perf = PerfRecorder()
        run = run_analysis(
            tiny_program, "2obj", perf=perf,
            incremental=IncrementalBase(tiny_program, base_run,
                                        enabled=True))
        cold_perf = PerfRecorder()
        cold = run_analysis(tiny_program, "2obj", perf=cold_perf)
        assert run.incr["mode"] == "cold"
        assert "warm-start mismatch" in run.incr["reason"]
        assert _digest(run) == _digest(cold)
        assert perf.counters == cold_perf.counters
        assert run.attempts[-1].recorder.counters == cold_perf.counters

    def test_incr_note_lands_in_metrics(self):
        program, base_run = self._base()
        run = run_analysis(self._edit(program), "ci",
                           incremental=IncrementalBase(program, base_run))
        assert run.metrics()["incremental"] == run.incr


class TestEditSequenceProperty:
    """Arbitrary well-formed program, a sequence of seeded single-method
    edits applied through :class:`IncrementalSession` (each step warm
    against the previous fixpoint): every step's digest must equal a
    cold solve of the same version."""

    @given(program=ir_programs(),
           seeds=st.lists(st.integers(0, 1_000_000),
                          min_size=1, max_size=3))
    @settings(max_examples=12, deadline=None)
    def test_session_tracks_cold_digests(self, program, seeds):
        session = IncrementalSession(program, config="ci")
        session.analyze()
        current = program
        for seed in seeds:
            qualname = pick_editable_method(current, seed=seed)
            current = perturb_method(current, qualname, seed=seed)
            run = session.update(current)
            cold = run_analysis(current, "ci")
            assert _digest(run) == _digest(cold)

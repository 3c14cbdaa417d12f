"""The edit → re-analyze session: every update equals a cold solve.

:class:`~repro.incr.IncrementalSession` solves each edited program
cold through its artifact cache, so an update's ``result_digest`` must
be byte-identical to a plain :func:`run_analysis` of the same
version."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.pipeline import run_analysis
from repro.incr import IncrementalSession, perturb_method, pick_editable_method
from repro.serve.protocol import result_digest
from repro.workloads.generator import generate
from repro.workloads.profiles import profile_spec

from tests.program_strategies import ir_programs


def _digest(run):
    assert run.result is not None
    return result_digest(run.result)


class TestEditSequenceProperty:
    """Arbitrary well-formed program, a sequence of seeded single-method
    edits applied through :class:`IncrementalSession`: every step's
    digest must equal a cold solve of the same version."""

    @given(program=ir_programs(),
           seeds=st.lists(st.integers(0, 1_000_000),
                          min_size=1, max_size=3),
           config=st.sampled_from(["ci", "2obj"]))
    # The retired warm start dropped a call edge and a may-fail cast
    # on this edit (541 vs 542 edges, 8 vs 9 casts).
    @example(program=generate(replace(profile_spec("antlr", 0.5), seed=7)),
             seeds=[194713490], config="2obj")
    @settings(max_examples=12, deadline=None)
    def test_session_tracks_cold_digests(self, program, seeds, config):
        session = IncrementalSession(program, config=config)
        session.analyze()
        current = program
        for seed in seeds:
            qualname = pick_editable_method(current, seed=seed,
                                            exclude_entry=True)
            current = perturb_method(current, qualname, seed=seed)
            run = session.update(current)
            cold = run_analysis(current, config)
            assert _digest(run) == _digest(cold)

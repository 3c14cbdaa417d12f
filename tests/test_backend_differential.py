"""Differential tests: the production solver against the reference solver.

The bit-vector solver must be observationally identical to the
independent reference fixpoint (:mod:`tests.reference_solver`) — same
points-to sets, call graphs and may-fail-cast verdicts — on the full
pipeline, on real workloads, and on arbitrary generated programs; and
its collapse schedule (default stride, or a pass due at every pop) must
not change the MAHJONG merge decisions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.analysis import run_analysis, run_pre_analysis
from repro.analysis.governor import ResourceGovernor
from repro.clients import check_casts
from repro.pta.solver import Solver
from repro.workloads import TINY, generate, load_profile

from tests.program_strategies import ir_programs
from tests.test_reference_solver import (
    assert_matches_reference,
    assert_run_matches_reference,
)

CONFIGS = ["ci", "2cs", "2obj", "2type", "T-2type", "M-2obj"]


def _all_var_pts(program, result):
    facts = {}
    for method in program.all_methods():
        qname = method.qualified_name
        for var in method.local_variables():
            ids = result.var_points_to_ids(qname, var)
            if ids:
                facts[(qname, var)] = ids
    return facts


def _object_identity(result, obj: int):
    """Run-independent identity of an interned object id."""
    return (result.object_site_key(obj), result.object_heap_context(obj))


def _canonical_casts(result):
    return {
        (site, cls, frozenset(_object_identity(result, o) for o in objs))
        for site, cls, objs in result.cast_records()
    }


def assert_equivalent(program, a, b):
    """The full observational-equivalence battery for two production
    results (e.g. the two solver loops).

    Interned object ids are solver-internal and may differ between runs,
    so per-variable sets are compared through site-key/heap-context
    identities; counts and graphs compare directly.  Iteration counts
    are not compared: the loops schedule differently.
    """
    assert a.object_count == b.object_count
    assert a.reachable_methods() == b.reachable_methods()
    assert a.call_graph_edges() == b.call_graph_edges()
    assert (a.context_sensitive_edge_count()
            == b.context_sensitive_edge_count())
    assert a.call_site_targets() == b.call_site_targets()

    a_vars = _all_var_pts(program, a)
    b_vars = _all_var_pts(program, b)
    assert a_vars.keys() == b_vars.keys()
    for key in a_vars:
        a_ids = {_object_identity(a, o) for o in a_vars[key]}
        b_ids = {_object_identity(b, o) for o in b_vars[key]}
        assert a_ids == b_ids, key

    assert _canonical_casts(a) == _canonical_casts(b)
    a_casts = check_casts(a)
    b_casts = check_casts(b)
    assert a_casts.may_fail_sites == b_casts.may_fail_sites
    assert a_casts.safe_sites == b_casts.safe_sites

    assert a.stats()["pts_facts"] == b.stats()["pts_facts"]


class TestPipelineDifferential:
    @pytest.fixture(scope="class")
    def programs(self, figure1_program):
        return {
            "figure1": figure1_program,
            "tiny": generate(TINY),
            "luindex": load_profile("luindex", 0.25),
        }

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("name", ["figure1", "tiny", "luindex"])
    def test_full_pipeline_matches(self, programs, name, config):
        program = programs[name]
        assert_run_matches_reference(program, run_analysis(program, config))


class TestGeneratedPrograms:
    @given(ir_programs())
    @settings(max_examples=30, deadline=None)
    def test_solver_matches_on_random_programs(self, program):
        assert_matches_reference(program, Solver(program).solve())

    @given(ir_programs())
    @settings(max_examples=25, deadline=None)
    def test_merge_decisions_identical(self, program):
        """The tentpole invariant for MAHJONG: the pre-analysis
        schedule must not perturb the merged object map at all.  Check
        stride 1 makes a collapse pass (and a promotion to the wave
        loop, when cycles form) due at every pop."""
        default = run_pre_analysis(program)
        forced = run_pre_analysis(
            program, governor=ResourceGovernor(check_stride=1))
        assert default.merge.mom == forced.merge.mom
        assert_equivalent(program, default.result, forced.result)
        assert_matches_reference(program, default.result)

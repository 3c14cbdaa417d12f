"""Differential: condensation must be observation-invisible.

Every observable a client can ask for — reachable methods, call-graph
edges, per-variable points-to sets, cast verdicts, fact counts — must
equal what the reference solver (:mod:`tests.reference_solver`, which
shares no code with the production solver) derives, on the default
schedule (the up-front ranking pass, then the FIFO or wave loop) and
with a collapse pass due at every pop (check stride 1).

The cycle-heavy profile on the default schedule, its M-2obj pipeline
against the merged abstraction and the check that its solves really
collapse cycles are inputs of :mod:`tests.test_reference_solver`.

The test names keep their "four-way" wording from when the uncondensed
solver was compared too; that solver is deleted, so each test now
compares the production solver against the reference alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.analysis.governor import ResourceGovernor
from repro.pta.context import selector_for
from repro.pta.solver import Solver
from repro.workloads import TINY, generate, load_profile

from tests.program_strategies import ir_programs
from tests.test_reference_solver import assert_matches_reference

CONFIGS = ["ci", "2cs", "2obj", "2type"]


def solve(program, config="ci", governor=None):
    return Solver(program, selector_for(config), governor=governor).solve()


class TestSolverFourWay:
    @pytest.fixture(scope="class")
    def programs(self, figure1_program):
        return {
            "figure1": figure1_program,
            "tiny": generate(TINY),
            "cycles": load_profile("cycles", 0.5),
        }

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("name", ["figure1", "tiny"])
    def test_four_way_matches(self, programs, name, config):
        program = programs[name]
        assert_matches_reference(program, solve(program, config))

    def test_four_way_with_forced_collapse(self, programs):
        """check_stride=1 makes the collapse pass run at every pop, so
        even programs too small to hit the production stride exercise
        mid-solve condensation."""
        for program in programs.values():
            result = solve(program, "ci",
                           governor=ResourceGovernor(check_stride=1))
            assert_matches_reference(program, result)


class TestHypothesisFourWay:
    @given(program=ir_programs())
    @settings(max_examples=25, deadline=None)
    def test_random_programs_four_way(self, program):
        result = solve(program, "ci",
                       governor=ResourceGovernor(check_stride=1))
        assert_matches_reference(program, result)

    @given(program=ir_programs())
    @settings(max_examples=10, deadline=None)
    def test_random_programs_context_sensitive(self, program):
        assert_matches_reference(program, solve(program, "2obj"))

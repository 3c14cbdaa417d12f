"""Differential: condensation must be observation-invisible.

Every observable a client can ask for — reachable methods, call-graph
edges, per-variable points-to sets (compared through site-key/heap-
context identities, since interned object ids may differ between runs),
cast verdicts, fact counts — must be identical with SCC on (the wave
loop, after an up-front ranking pass) and SCC off (the plain FIFO
loop), and both must equal the reference solver
(:mod:`tests.reference_solver`).

What is *not* compared across the SCC axis: ``iterations`` and raw
object ids.  Wave scheduling does strictly less work on cyclic
programs — that asymmetry is the whole point.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.analysis import run_analysis
from repro.analysis.governor import ResourceGovernor
from repro.pta.context import selector_for
from repro.pta.solver import Solver
from repro.workloads import TINY, generate, load_profile

from tests.program_strategies import ir_programs
from tests.test_backend_differential import assert_equivalent
from tests.test_reference_solver import assert_matches_reference

#: Raw-solver context selectors (pipeline configs like ``M-2obj`` go
#: through :func:`run_analysis` in the pipeline test below).
CONFIGS = ["ci", "2cs", "2obj", "2type"]


def solve_both_loops(program, config="ci", governor_factory=None):
    """Solve with SCC on and off; returns results keyed by ``scc``."""
    results = {}
    for scc in (True, False):
        governor = governor_factory() if governor_factory else None
        solver = Solver(program, selector_for(config), scc=scc,
                        governor=governor)
        results[scc] = solver.solve()
    return results


def assert_loops_match_reference(program, results):
    """Both loops agree with each other and with the reference."""
    assert_equivalent(program, results[True], results[False])
    assert_matches_reference(program, results[True])


class TestSolverFourWay:
    @pytest.fixture(scope="class")
    def programs(self, figure1_program):
        return {
            "figure1": figure1_program,
            "tiny": generate(TINY),
            "cycles": load_profile("cycles", 0.5),
        }

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("name", ["figure1", "tiny", "cycles"])
    def test_four_way_matches(self, programs, name, config):
        program = programs[name]
        results = solve_both_loops(program, config)
        assert_loops_match_reference(program, results)
        if name == "cycles":
            # sanity: the SCC runs really did condense something
            assert results[True].stats()["scc"] is True
            assert results[False].stats()["scc"] is False

    def test_four_way_with_forced_collapse(self, programs):
        """check_stride=1 makes the collapse pass run at every pop, so
        even programs too small to hit the production stride exercise
        mid-solve condensation."""
        for name, program in programs.items():
            results = solve_both_loops(
                program, "ci",
                governor_factory=lambda: ResourceGovernor(check_stride=1),
            )
            assert_loops_match_reference(program, results)

    def test_pipeline_four_way_cycles(self, programs):
        """Full pipeline (pre-analysis + merge + main) with SCC on and
        off on the cycle-heavy program."""
        program = programs["cycles"]
        runs = {scc: run_analysis(program, "M-2obj", scc=scc)
                for scc in (True, False)}
        assert runs[True].pre.merge.mom == runs[False].pre.merge.mom
        assert_equivalent(program, runs[True].result, runs[False].result)
        assert_matches_reference(program, runs[True].result,
                                 runs[True].pre.abstraction)


class TestHypothesisFourWay:
    @given(program=ir_programs())
    @settings(max_examples=25, deadline=None)
    def test_random_programs_four_way(self, program):
        results = solve_both_loops(
            program, "ci",
            governor_factory=lambda: ResourceGovernor(check_stride=1),
        )
        assert_loops_match_reference(program, results)

    @given(program=ir_programs())
    @settings(max_examples=10, deadline=None)
    def test_random_programs_context_sensitive(self, program):
        results = solve_both_loops(program, "2obj")
        assert_loops_match_reference(program, results)

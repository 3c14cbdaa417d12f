"""The production solver, fact for fact, against the reference solver.

:mod:`tests.reference_solver` shares no code with the production solver,
so agreement here rules out spurious facts as well as missed ones.
Compared: per-variable, field, static-field and exception points-to
sets (objects as ``(site_key, heap_context)``, variables per context),
reachable (context, method) pairs, context-sensitive and projected call
edges, reachable call sites, cast records and may-fail cast sites.
Inputs are hypothesis-generated programs (throwing and catching in
virtual and static callees; factories, ``this``-field stores and
containers filled in callees, so objects of one site differ by heap
context), the paper's examples, a generated program with exception
sites, a cycle-heavy profile and the hand-written corpus under
ci/2cs/2obj/2type with the alloc-site, T- and M- heaps, and
introspective over 2obj and 2type.  Constraint-graph condensation must
be invisible here: the cycle-heavy profile collapses cycles on every
configuration, and a solve of it runs a collapse pass at every pop
(check stride 1).  ``tests/test_scc_differential.py`` runs the same
comparison with a collapse pass at every pop on Figure 1, TINY and
generated programs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import run_analysis, run_introspective
from repro.analysis.governor import ResourceGovernor
from repro.clients import check_casts
from repro.frontend import parse_program
from repro.pta.context import selector_for
from repro.pta.heapmodel import AllocationSiteAbstraction
from repro.pta.solver import Solver
from repro.workloads import TINY, generate, load_profile
from repro.workloads.corpus import corpus_names, corpus_program

import tests.test_paper_examples as paper
from tests.program_strategies import ir_programs
from tests.reference_solver import reference_solve

CONFIGS = ["ci", "2cs", "2obj", "2type"]
HEAPS = ["", "T-", "M-"]
#: the configurations the generated heap-context patterns are run under
HEAP_CONTEXT_CONFIGS = ["2obj", "2type", "M-2obj", "M-2type", "I-2obj",
                        "I-2type"]


def production_facts(result):
    """The observable relations of a production result, with interned
    ids replaced by semantic names."""
    s = result._solver

    def token(obj):
        return (result.object_site_key(obj), result.object_heap_context(obj))

    def objects(node):
        return frozenset(token(o) for o in s.node_pts_ids(node))

    pts = {}
    for node, ctx, method, var in s.variable_nodes():
        pts[("var", ctx, method.qualified_name, var)] = objects(node)
    for node, ctx, method in s.exception_nodes():
        pts[("exc", ctx, method.qualified_name)] = objects(node)
    for key, node in s._node_ids.items():
        if key[0] == 1:
            pts[("field", token(key[1]), key[2])] = objects(node)
        elif key[0] == 2:
            pts[("static", key[1], key[2])] = objects(node)
    return {
        "pts": {node: objs for node, objs in pts.items() if objs},
        "reachable": {(ctx, name) for name in result.reachable_methods()
                      for ctx in result.contexts_of_method(name)},
        "call_edges": set(s._cg_edges_ctx),
        "projected_edges": result.call_graph_edges(),
        "virtual_sites": set(result.call_site_targets()),
        "static_sites": result.static_call_sites(),
        "casts": {(site, cls): frozenset(map(token, objs))
                  for site, cls, objs in result.cast_records()},
        "may_fail": set(check_casts(result).may_fail_sites),
    }


def reference_facts(ref):
    casts = {}
    for site, cls, source in ref.casts:
        casts.setdefault((site, cls), set()).update(ref.pts.get(source, ()))
    may_fail = {site for (site, cls), objs in casts.items()
                if any(not ref.is_subtype(ref.obj_class[o], cls)
                       for o in objs)}
    return {
        "pts": {node: frozenset(objs) for node, objs in ref.pts.items()
                if objs},
        "reachable": set(ref.reachable),
        "call_edges": set(ref.call_edges),
        "projected_edges": {(site, callee)
                            for _, site, _, callee in ref.call_edges},
        "virtual_sites": set(ref.virtual_sites),
        "static_sites": set(ref.static_sites),
        "casts": {key: frozenset(objs) for key, objs in casts.items()},
        "may_fail": may_fail,
    }


def assert_matches_reference(program, result, heap_model=None,
                             selector=None):
    """``selector`` defaults to the one ``result``'s selector name
    builds; pass it for selectors no name builds (introspective)."""
    if selector is None:
        selector = selector_for(result.selector_name)
    want = reference_facts(reference_solve(program, selector, heap_model))
    got = production_facts(result)
    for relation in want:
        missing = {k for k in want[relation] if k not in got[relation]}
        spurious = {k for k in got[relation] if k not in want[relation]}
        assert not missing and not spurious, (relation, missing, spurious)
        if isinstance(want[relation], dict):
            for key, value in want[relation].items():
                assert got[relation][key] == value, (relation, key)


def assert_run_matches_reference(program, run):
    """A pipeline run against the reference under the run's own heap
    model; for M- heaps the ci pre-analysis is checked too."""
    heap_model = run.result._solver.heap_model
    assert_matches_reference(program, run.result, heap_model)
    if run.pre is not None:
        assert_matches_reference(program, run.pre.result,
                                 AllocationSiteAbstraction())


#: A copy cycle whose members carry their own loads, stores and calls:
#: condensation merges ``x``, ``y`` and ``z`` up front, so the wave loop
#: must run the statements of every member on the merged set.
COPY_CYCLE_SOURCE = """
class A { field f: Object; method m(p) { this.f = p; return this; } }
class B extends A { method m(p) { return p; } }
class X { }
main {
  a = new A();
  b = new B();
  o = new X();
  x = a;
  y = x;
  z = y;
  x = z;
  y = b;
  z.f = o;
  r = x.m(o);
  s = y.f;
  t = (B) z;
}
"""


@pytest.fixture(scope="module")
def programs(figure1_program):
    named = {
        "figure1": figure1_program,
        "figure7": parse_program(paper.TestFigure7AndExample32.SOURCE),
        "copy_cycle": parse_program(COPY_CYCLE_SOURCE),
        "tiny": generate(TINY),
        "tiny_exceptions": generate(replace(TINY, exception_sites=6)),
        "cycles": load_profile("cycles", 0.5),
    }
    for name in corpus_names():
        named[name] = corpus_program(name)
    return named


PROGRAM_NAMES = ["figure1", "figure7", "copy_cycle", "tiny",
                 "tiny_exceptions", "cycles", *corpus_names()]


class TestExamplesAndCorpus:
    # The ``-scc`` id suffix names the solver's one schedule (condensation
    # on); it is kept so the ids match those of the runs from before the
    # off-switch was deleted.
    @pytest.mark.parametrize("heap", HEAPS,
                             ids=["alloc-scc", "T-scc", "M-scc"])
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("name", PROGRAM_NAMES)
    def test_pipeline_matches_reference(self, programs, name, config, heap):
        program = programs[name]
        run = run_analysis(program, heap + config)
        assert_run_matches_reference(program, run)
        if name == "cycles":
            # the solve really did condense something
            assert run.result.stats()["count_sccs_collapsed"] > 0

    @pytest.mark.parametrize("base", ["2obj", "2type"])
    @pytest.mark.parametrize("name", PROGRAM_NAMES)
    def test_introspective_matches_reference(self, programs, name, base):
        """Introspective over an object- or type-sensitive base resolves
        callees through the per-solve memo with refined and unrefined
        callees mixed (threshold 1 refines only methods with at most one
        receiver in the pre-analysis)."""
        program = programs[name]
        run = run_introspective(program, base, threshold=1)
        assert_matches_reference(program, run.result,
                                 selector=run.result._solver.selector)

    @pytest.mark.parametrize("config", ["ci", "2obj"])
    def test_cycles_with_forced_collapse(self, config):
        """Check stride 1 runs a detection pass at every pop, so the
        up-front ranking, mid-solve probes, promotion to the wave loop
        and repeated collapses all happen on a small program."""
        program = load_profile("cycles", 0.3)
        result = Solver(program, selector_for(config),
                        governor=ResourceGovernor(check_stride=1)).solve()
        assert result.stats()["count_scc_nodes_merged"] > 0
        assert_matches_reference(program, result)


class TestGeneratedPrograms:
    @given(program=ir_programs(), config=st.sampled_from(CONFIGS))
    @settings(max_examples=60, deadline=None)
    def test_solver_matches_reference(self, program, config):
        result = Solver(program, selector_for(config)).solve()
        assert_matches_reference(program, result)

    @given(program=ir_programs(), config=st.sampled_from(CONFIGS),
           heap=st.sampled_from(["T-", "M-"]))
    @settings(max_examples=40, deadline=None)
    def test_merged_heaps_match_reference(self, program, config, heap):
        run = run_analysis(program, heap + config)
        assert_run_matches_reference(program, run)

    @given(program=ir_programs(), config=st.sampled_from(HEAP_CONTEXT_CONFIGS))
    @settings(max_examples=60, deadline=None)
    def test_heap_contexts_match_reference(self, program, config):
        """The configurations whose heap contexts (and receiver keys)
        tell objects of one allocation site apart: factory, ``this``
        field and container objects allocated in callees reach virtual
        call sites under several heap contexts.  ``I-`` runs
        introspective over the base with threshold 1."""
        if config.startswith("I-"):
            run = run_introspective(program, config[2:], threshold=1)
            assert_matches_reference(program, run.result,
                                     selector=run.result._solver.selector)
        else:
            assert_run_matches_reference(program,
                                         run_analysis(program, config))

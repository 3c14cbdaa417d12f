"""The per-method query indexes of :class:`~repro.pta.results.PointsToResult`.

``exception_points_to`` and ``var_points_to_ids`` read indexes built once
per result.  They are checked here against a brute-force scan of the
solver's variable and exception node records (``Solver.variable_nodes``
and ``Solver.exception_nodes``) that lives in this file, on hypothesis
programs, the hand-written corpus and a generated program with
exceptional flow, under ci, 2obj and 2type, and on a forced-collapse
case whose variable nodes are merged cycle members.  A work-count test
pins the exception client to one visit per exception node.  Frame sizes
(an exceptional exit only for methods that may throw) are checked
against variable names read off the statements and the reference
solver's reachable (context, method) pairs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import refinement_set, run_pre_analysis
from repro.analysis.governor import ResourceGovernor
from repro.clients import analyze_exceptions
from repro.frontend import parse_program
from repro.pta.context import selector_for
from repro.ir.statements import AssignNull
from repro.pta.solver import Solver
from repro.workloads import TINY, generate, load_profile
from repro.workloads.corpus import corpus_names, corpus_program

from tests.program_strategies import ir_programs
from tests.reference_solver import reference_solve
from tests.test_introspective import HOT_COLD

CONFIGS = ["ci", "2obj", "2type"]


def exceptional_program():
    return generate(replace(TINY, exception_sites=6, seed=21))


def scan_exceptions(result, qname, context=None):
    s = result._solver
    objs = set()
    for node, ctx, method in s.exception_nodes():
        if method.qualified_name == qname and context in (None, ctx):
            objs.update(s.node_pts_ids(node))
    return objs


def scan_var(result, qname, var, context=None):
    s = result._solver
    objs = set()
    for node, ctx, method, name in s.variable_nodes():
        if (method.qualified_name, name) == (qname, var) \
                and context in (None, ctx):
            objs.update(s.node_pts_ids(node))
    return objs


def assert_queries_match_scans(program, result):
    s = result._solver
    exc_contexts = {}
    for _, ctx, method in s.exception_nodes():
        exc_contexts.setdefault(method.qualified_name, set()).add(ctx)
    per_method = {}
    for method in program.all_methods():
        qname = method.qualified_name
        objs = scan_exceptions(result, qname)
        assert result.exception_points_to(qname) == objs, qname
        if objs:
            per_method[qname] = frozenset(map(result.object_class, objs))
        contexts = exc_contexts.get(qname, set()) \
            | result.contexts_of_method(qname)
        for ctx in contexts:
            assert result.exception_points_to(qname, ctx) \
                == scan_exceptions(result, qname, ctx), (qname, ctx)
    assert analyze_exceptions(result).per_method == per_method

    var_contexts = {}
    for _, ctx, method, var in s.variable_nodes():
        var_contexts.setdefault((method.qualified_name, var), set()).add(ctx)
    for (qname, var), contexts in var_contexts.items():
        assert result.var_points_to_ids(qname, var) \
            == scan_var(result, qname, var), (qname, var)
        for ctx in contexts:
            assert result.var_points_to_ids(qname, var, ctx) \
                == scan_var(result, qname, var, ctx), (qname, var, ctx)


PROGRAMS = {
    **{name: lambda name=name: corpus_program(name) for name in corpus_names()},
    "exceptional_tiny": exceptional_program,
}


class TestIndexedQueriesMatchScans:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_corpus(self, name, config):
        program = PROGRAMS[name]()
        result = Solver(program, selector_for(config)).solve()
        assert_queries_match_scans(program, result)

    @given(program=ir_programs(), config=st.sampled_from(CONFIGS))
    @settings(max_examples=40, deadline=None)
    def test_generated_programs(self, program, config):
        result = Solver(program, selector_for(config)).solve()
        assert_queries_match_scans(program, result)

    def test_nodes_merged_by_collapse_resolve(self):
        """Stride 1 collapses cycles mid-solve, so indexed variable
        nodes are cycle members that read through ``find()``."""
        program = load_profile("cycles", 0.3)
        result = Solver(program, selector_for("ci"),
                        governor=ResourceGovernor(check_stride=1)).solve()
        assert result.stats()["count_scc_nodes_merged"] > 0
        assert_queries_match_scans(program, result)

    def test_unknown_names_are_empty(self):
        program = exceptional_program()
        result = Solver(program, selector_for("2obj")).solve()
        entry = program.entry.qualified_name
        assert result.exception_points_to("No.such") == set()
        assert result.exception_points_to(entry, ("no-such-context",)) == set()
        assert result.var_points_to_ids("No.such", "this") == set()
        assert result.var_points_to_ids(entry, "no_such_var") == set()


def variable_names(method):
    """The variables of ``method`` read off its statements: ``this``,
    the parameters and every name a statement reads or writes.  An
    ``AssignNull`` moves no object, so a variable that is only nulled
    needs no node."""
    names = set() if method.is_static else {"this"}
    names.update(method.params)
    for stmt in method.statements:
        if isinstance(stmt, AssignNull):
            continue
        for attr in ("target", "source", "base"):
            name = getattr(stmt, attr, None)
            if name is not None:
                names.add(name)
        names.update(getattr(stmt, "args", ()))
    return names


class TestFrameSizes:
    """Only a method that may throw has an exceptional exit, in each of
    its contexts; every other frame is exactly its variables."""

    @pytest.mark.parametrize("config", CONFIGS)
    def test_nodes_are_variables_plus_exits_of_throwers(self, config):
        program = exceptional_program()
        may_throw = {m.qualified_name for m in program.may_throw_methods()}
        methods = {m.qualified_name: m for m in program.all_methods()}
        assert may_throw and set(methods) - may_throw  # both kinds exist
        result = Solver(program, selector_for(config)).solve()
        reachable = reference_solve(program, selector_for(config)).reachable
        assert {name for _, name in reachable} & may_throw
        assert {name for _, name in reachable} - may_throw
        interned = len(result._solver._node_ids)  # field + static-field
        frames = sum(len(variable_names(methods[name])) + (name in may_throw)
                     for _, name in reachable)
        assert result.stats()["nodes"] == interned + frames

    @pytest.mark.parametrize("config", CONFIGS)
    def test_methods_that_cannot_throw_keep_their_contexts(self, config):
        program = exceptional_program()
        may_throw = {m.qualified_name for m in program.may_throw_methods()}
        result = Solver(program, selector_for(config)).solve()
        contexts = {}
        for ctx, name in reference_solve(
                program, selector_for(config)).reachable:
            contexts.setdefault(name, set()).add(ctx)
        quiet = set(contexts) - may_throw
        assert quiet
        exits = {method.qualified_name
                 for _, _, method in result._solver.exception_nodes()}
        assert exits == set(contexts) & may_throw
        for name in contexts:
            assert result.contexts_of_method(name) == contexts[name], name
        for name in quiet:
            assert result.exception_points_to(name) == set(), name
            for ctx in contexts[name]:
                assert result.exception_points_to(name, ctx) == set()


class TestWorkCount:
    def test_exception_client_visits_each_node_once(self):
        """A scan of every exception node per method (O(methods x
        nodes)) reads the exception node records once per method each,
        far more than once per node."""
        program = exceptional_program()
        result = Solver(program, selector_for("2obj")).solve()
        solver = result._solver
        methods = [m.qualified_name for m in program.all_methods()]
        exc_nodes = sum(1 for _ in solver.exception_nodes())
        assert len(methods) > 10 and exc_nodes >= 2
        expected = {}
        for qname in methods:
            objs = scan_exceptions(result, qname)
            if objs:
                expected[qname] = frozenset(map(result.object_class, objs))
        assert expected

        record_reads = 0
        exception_nodes = solver.exception_nodes

        def counting_exception_nodes():
            nonlocal record_reads
            for record in exception_nodes():
                record_reads += 1
                yield record

        solver.exception_nodes = counting_exception_nodes
        bit_reads = 0
        node_pts_bits = solver.node_pts_bits

        def counting_node_pts_bits(node):
            nonlocal bit_reads
            bit_reads += 1
            return node_pts_bits(node)

        solver.node_pts_bits = counting_node_pts_bits
        assert analyze_exceptions(result).per_method == expected
        assert bit_reads <= exc_nodes
        assert record_reads <= exc_nodes

    @pytest.mark.parametrize("threshold", [0, 1, 2, 8, 100])
    @pytest.mark.parametrize("source", ["hot_cold", "tiny"])
    def test_refinement_set_unchanged(self, source, threshold, tiny_program):
        program = (parse_program(HOT_COLD) if source == "hot_cold"
                   else tiny_program)
        pre = run_pre_analysis(program)
        expected = {
            m.qualified_name for m in program.all_methods()
            if m.is_static or len(scan_var(
                pre.result, m.qualified_name, "this")) <= threshold
        }
        assert refinement_set(pre, program, threshold) == expected

"""Work counts of the callee memo, receiver groups and may-throw linking.

Under a selector whose callee context ignores the caller
(:func:`~repro.pta.context.ignores_caller`: ci, k-obj, k-type and
introspective over any of them) the solver resolves each (receiver key,
method name, arity) once per solve, and under a type-sensitive one it
dispatches a delta's receivers once per receiver key.  Exceptional call
edges and catch edges are only linked for methods that may throw
(:meth:`~repro.ir.program.Program.may_throw_methods`).  These tests pin
the counts, no timing, and compare each case with the reference solver.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.frontend import parse_program
from repro.incr.edits import replace_method_body
from repro.ir.statements import Invoke, Throw
from repro.pta.context import (
    CallSiteSensitive,
    ContextInsensitive,
    IntrospectiveSensitive,
    ObjectSensitive,
    TypeSensitive,
    ignores_caller,
    selector_for,
)
from repro.pta.solver import Solver
from repro.workloads import TINY, generate
from repro.workloads.corpus import corpus_names, corpus_program

from tests.test_reference_solver import assert_matches_reference

N = 4


def counting(name):
    """The selector ``name`` builds, with ``select_virtual`` wrapped to
    record the call site of every call."""
    selector = selector_for(name)
    sites = []
    select_virtual = selector.select_virtual

    def wrapped(caller_context, call_site, receiver, callee=None):
        sites.append(call_site)
        return select_virtual(caller_context, call_site, receiver, callee)

    selector.select_virtual = wrapped
    return selector, sites


def virtual_sites(program):
    """Call-site ids of the entry method's virtual calls, in order."""
    return [stmt.call_site for stmt in program.entry.statements
            if isinstance(stmt, Invoke)]


def same_key_source(n: int) -> str:
    """``n`` receivers of one class, all allocated in ``main``: one
    class, one containing class and the empty heap context."""
    allocs = "\n".join("  x = new A();" for _ in range(n))
    return f"""
class A {{ method m() {{ return this; }} }}
main {{
{allocs}
  r = x.m();
}}
"""


def two_site_source(n: int, sites: int) -> str:
    """``n`` receivers of ``n`` distinct classes, called ``sites`` times
    with the same method."""
    classes = "\n".join(f"class C{i} extends A {{ }}" for i in range(n))
    allocs = "\n".join(f"  x = new C{i}();" for i in range(n))
    calls = "\n".join(f"  r{j} = x.m();" for j in range(sites))
    return f"""
class A {{ method m() {{ return this; }} }}
{classes}
main {{
{allocs}
{calls}
}}
"""


class TestReceiverGroups:
    def test_2type_dispatches_one_group(self):
        program = parse_program(same_key_source(N))
        selector, calls = counting("2type")
        result = Solver(program, selector).solve()
        assert result.stats()["count_dispatch_attempts"] == 1
        assert calls == virtual_sites(program)
        assert len(result.var_points_to_ids("A.m", "this")) == N
        assert_matches_reference(program, result)

    def test_2obj_dispatches_each_object(self):
        program = parse_program(same_key_source(N))
        selector, calls = counting("2obj")
        result = Solver(program, selector).solve()
        assert result.stats()["count_dispatch_attempts"] == N
        assert len(calls) == N
        assert_matches_reference(program, result)


#: Two ``A`` objects from one site, in two heap contexts: ``F.make``
#: runs under one context per factory class, so the objects share a
#: class and a context element but not a heap context.
HEAP_CONTEXT_SOURCE = """
class A { method m() { return this; } }
class F { method make() { a = new A(); return a; } }
class G { method fac() { f = new F(); return f; } }
class H { method fac() { f = new F(); return f; } }
main {
  g = new G();
  h = new H();
  f1 = g.fac();
  f2 = h.fac();
  x = f1.make();
  x = f2.make();
  r = x.m();
}
"""


class TestReceiverKeys:
    @pytest.mark.parametrize("config", ["2obj", "2type"])
    def test_heap_contexts_dispatch_apart(self, config):
        program = parse_program(HEAP_CONTEXT_SOURCE)
        result = Solver(program, selector_for(config)).solve()
        assert len(result.var_points_to_ids("<Main>.main", "x")) == 2
        assert len(result.contexts_of_method("A.m")) == 2
        assert_matches_reference(program, result)


class TestCalleeMemo:
    @pytest.mark.parametrize("config, second_site_calls", [
        ("ci", 0), ("2obj", 0), ("2type", 0), ("2cs", N)])
    def test_second_site(self, config, second_site_calls):
        program = parse_program(two_site_source(N, 2))
        first, second = virtual_sites(program)
        selector, calls = counting(config)
        result = Solver(program, selector).solve()
        assert calls.count(first) == N
        assert calls.count(second) == second_site_calls
        assert result.stats()["count_dispatch_attempts"] == 2 * N
        assert_matches_reference(program, result)

    @pytest.mark.parametrize("selector, expected", [
        (ContextInsensitive(), True),
        (CallSiteSensitive(2), False),
        (ObjectSensitive(2), True),
        (TypeSensitive(2), True),
        (IntrospectiveSensitive(ContextInsensitive(), bool), True),
        (IntrospectiveSensitive(CallSiteSensitive(1), bool), False),
        (IntrospectiveSensitive(ObjectSensitive(2), bool), True),
        (IntrospectiveSensitive(TypeSensitive(3), bool), True),
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_ignores_caller(self, selector, expected):
        assert ignores_caller(selector) is expected


#: ``C.boom`` throws two virtual calls below ``main``; ``B.quiet`` and
#: ``C.idle`` cannot throw, and ``B.mid``'s catch binds what escapes
#: ``C.boom``.
DEEP_THROW_SOURCE = """
class E { }
class C {
  method boom() { e = new E(); throw e; return this; }
  method idle() { return this; }
}
class B {
  method mid(c) { r = c.boom(); k = catch (E); return r; }
  method quiet(c) { r = c.idle(); k = catch (E); return r; }
}
main {
  b = new B();
  c = new C();
  r = b.mid(c);
  q = b.quiet(c);
}
"""


def exceptional_edges(solver):
    """Solver edges that leave or enter an exceptional exit."""
    exits = {node for node, _, _ in solver.exception_nodes()}
    return {edge for edge in solver._edges
            if edge[0] in exits or edge[1] in exits}


class TestMayThrow:
    @pytest.mark.parametrize("program", [
        pytest.param(lambda: generate(TINY), id="tiny"),
        *(pytest.param(lambda name=name: corpus_program(name), id=name)
          for name in corpus_names() if name != "failure_paths"),
    ])
    @pytest.mark.parametrize("config", ["ci", "2obj"])
    def test_throw_free_program_links_no_exceptional_edge(self, program,
                                                          config):
        program = program()
        assert program.may_throw_methods() == frozenset()
        result = Solver(program, selector_for(config)).solve()
        solver = result._solver
        assert solver._cg_edges_ctx  # precondition: calls were linked
        assert exceptional_edges(solver) == set()

    @pytest.mark.parametrize("config", ["ci", "2cs", "2obj", "2type"])
    def test_throw_two_calls_deep_reaches_main(self, config):
        program = parse_program(DEEP_THROW_SOURCE)
        assert {m.qualified_name for m in program.may_throw_methods()} == {
            "C.boom", "B.mid", "<Main>.main"}
        result = Solver(program, selector_for(config)).solve()
        escaping = {result.object_class(obj)
                    for obj in result.exception_points_to("<Main>.main")}
        assert escaping == {"E"}
        caught = {result.object_class(obj)
                  for obj in result.var_points_to_ids("B.mid", "k")}
        assert caught == {"E"}
        assert not result.var_points_to_ids("B.quiet", "k")
        solver = result._solver
        quiet = {node for node, _, method in solver.exception_nodes()
                 if method.qualified_name in ("B.quiet", "C.idle")}
        assert not any(edge[0] in quiet or edge[1] in quiet
                       for edge in solver._edges)
        assert_matches_reference(program, result)

    def test_memo_is_not_pickled_and_clones_recompute(self):
        program = parse_program(DEEP_THROW_SOURCE)
        names = {m.qualified_name for m in program.may_throw_methods()}
        clone = pickle.loads(pickle.dumps(program))
        assert clone._may_throw is None
        assert {m.qualified_name
                for m in clone.may_throw_methods()} == names
        edited = replace_method_body(program, "B.quiet", [Throw("c")])
        assert "B.quiet" in {m.qualified_name
                             for m in edited.may_throw_methods()}
        assert "B.quiet" not in names

    def test_generated_exception_sites(self):
        program = generate(replace(TINY, exception_sites=6))
        may_throw = program.may_throw_methods()
        assert may_throw and program.entry in may_throw
        assert program.may_throw_methods() is may_throw  # memoized
        for config in ("ci", "2type"):
            result = Solver(program, selector_for(config)).solve()
            assert result.exception_points_to("<Main>.main")
            assert_matches_reference(program, result)

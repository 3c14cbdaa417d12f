"""Behavioural tests for the points-to solver.

Each test builds a small program exercising one propagation rule or one
context-sensitivity phenomenon and checks the resulting points-to sets
or call graph exactly.
"""

import pytest

from repro.analysis.governor import ResourceGovernor
from repro.frontend import parse_program
from repro.pta import Solver, selector_for, solve
from repro.resources import TimeBudgetExceeded


def pts_sites(result, method, var, context=None):
    """Points-to set as a set of allocation-site ids."""
    return {
        d.site_key for d in result.var_points_to(method, var, context)
    }


class TestBasicPropagation:
    def test_allocation_and_copy_chain(self):
        r = solve(parse_program("main { a = new Object(); b = a; c = b; }"))
        assert pts_sites(r, "<Main>.main", "c") == {1}

    def test_copies_do_not_flow_backwards(self):
        r = solve(parse_program(
            "main { a = new Object(); b = a; c = new Object(); }"
        ))
        assert pts_sites(r, "<Main>.main", "a") == {1}

    def test_field_store_then_load(self):
        src = """
        class A { field f: Object; }
        main { a = new A(); v = new Object(); a.f = v; w = a.f; }
        """
        r = solve(parse_program(src))
        assert pts_sites(r, "<Main>.main", "w") == {2}

    def test_field_sensitivity_distinguishes_fields(self):
        src = """
        class A { field f: Object; field g: Object; }
        main {
          a = new A();
          v = new Object(); a.f = v;
          u = new Object(); a.g = u;
          w = a.f;
        }
        """
        r = solve(parse_program(src))
        assert pts_sites(r, "<Main>.main", "w") == {2}

    def test_aliased_bases_share_fields(self):
        src = """
        class A { field f: Object; }
        main {
          a = new A(); b = a;
          v = new Object(); a.f = v;
          w = b.f;
        }
        """
        r = solve(parse_program(src))
        assert pts_sites(r, "<Main>.main", "w") == {2}

    def test_distinct_objects_have_distinct_fields(self):
        src = """
        class A { field f: Object; }
        main {
          a = new A(); b = new A();
          v = new Object(); a.f = v;
          w = b.f;
        }
        """
        r = solve(parse_program(src))
        assert pts_sites(r, "<Main>.main", "w") == set()

    def test_static_fields_are_global(self):
        src = """
        class A { static field sf: Object; }
        main { v = new Object(); A::sf = v; w = A::sf; }
        """
        r = solve(parse_program(src))
        assert pts_sites(r, "<Main>.main", "w") == {1}

    def test_assign_null_contributes_nothing(self):
        r = solve(parse_program("main { a = new Object(); a = null; b = a; }"))
        assert pts_sites(r, "<Main>.main", "b") == {1}


class TestCalls:
    def test_static_call_links_args_and_return(self):
        src = """
        class U { static method id(x) { return x; } }
        main { v = new Object(); r = U::id(v); }
        """
        r = solve(parse_program(src))
        assert pts_sites(r, "<Main>.main", "r") == {1}

    def test_virtual_dispatch_selects_override(self):
        src = """
        class A { method who() { a = new A(); return a; } }
        class B extends A { method who() { b = new B(); return b; } }
        main { x = new B(); r = x.who(); }
        """
        r = solve(parse_program(src))
        # site 2 is `new A()` in A.who, site 3 is `new B()` in B.who
        got = pts_sites(r, "<Main>.main", "r")
        classes = {d.class_name for d in r.var_points_to("<Main>.main", "r")}
        assert classes == {"B"}
        assert len(got) == 1

    def test_receiver_this_gets_exactly_dispatching_object(self):
        src = """
        class A { method self() { return this; } }
        main { a = new A(); b = new A(); r = a.self(); }
        """
        r = solve(parse_program(src))
        assert pts_sites(r, "A.self", "this") == {1}

    def test_unresolvable_dispatch_is_ignored(self):
        src = """
        class A { }
        main { a = new A(); a.ghost(); }
        """
        program = parse_program(src, validate=False)
        r = solve(program)
        assert r.call_graph_edges() == set()

    def test_call_graph_edges_projected(self, figure1_program):
        r = solve(figure1_program)
        assert r.call_graph_edges() == {(1, "C.foo")}

    def test_recursion_terminates(self):
        src = """
        class A { method rec(x) { r = this.rec(x); return r; } }
        main { a = new A(); v = new Object(); out = a.rec(v); }
        """
        r = solve(parse_program(src))
        assert pts_sites(r, "A.rec", "x") == {2}

    def test_mutual_recursion_terminates_with_contexts(self):
        src = """
        class A {
          method ping(x) { r = this.pong(x); return r; }
          method pong(x) { r = this.ping(x); return x; }
        }
        main { a = new A(); v = new Object(); out = a.ping(v); }
        """
        r = solve(parse_program(src), selector_for("2cs"))
        assert pts_sites(r, "<Main>.main", "out") == {2}

    def test_divergent_recursion_returns_nothing(self):
        # the recursion never reaches a base case, so no object can flow
        # out of it (matches concrete semantics: the call never returns)
        src = """
        class A { method loop(x) { r = this.loop(x); return r; } }
        main { a = new A(); v = new Object(); out = a.loop(v); }
        """
        r = solve(parse_program(src), selector_for("2cs"))
        assert pts_sites(r, "<Main>.main", "out") == set()


class TestCasts:
    def test_cast_filters_incompatible_objects(self):
        src = """
        class A { }
        class B extends A { }
        main {
          a = new A(); b = new B();
          x = a; x = b;
          y = (B) x;
        }
        """
        r = solve(parse_program(src))
        assert {d.class_name for d in r.var_points_to("<Main>.main", "y")} == {"B"}

    def test_upcast_keeps_everything(self):
        src = """
        class A { }
        class B extends A { }
        main { b = new B(); y = (A) b; }
        """
        r = solve(parse_program(src))
        assert pts_sites(r, "<Main>.main", "y") == {1}

    def test_cast_records_expose_incoming_objects(self):
        src = """
        class A { }
        class B extends A { }
        main { a = new A(); x = a; y = (B) x; }
        """
        r = solve(parse_program(src))
        records = list(r.cast_records())
        assert len(records) == 1
        _, class_name, objs = records[0]
        assert class_name == "B"
        assert {r.object_class(o) for o in objs} == {"A"}


class TestContextSensitivity:
    IDENTITY = """
    class U { static method id(x) { return x; } }
    main {
      v1 = new Object();
      v2 = new Object();
      r1 = U::id(v1);
      r2 = U::id(v2);
    }
    """

    def test_ci_conflates_identity_calls(self):
        r = solve(parse_program(self.IDENTITY), selector_for("ci"))
        assert pts_sites(r, "<Main>.main", "r1") == {1, 2}

    def test_1cs_distinguishes_identity_calls(self):
        r = solve(parse_program(self.IDENTITY), selector_for("1cs"))
        assert pts_sites(r, "<Main>.main", "r1") == {1}
        assert pts_sites(r, "<Main>.main", "r2") == {2}

    CONTAINER = """
    class Box {
      field content: Object;
      method put(e) { this.content = e; }
      method get() { r = this.content; return r; }
    }
    main {
      b1 = new Box(); b2 = new Box();
      v1 = new Object(); v2 = new Object();
      b1.put(v1);
      b2.put(v2);
      o1 = b1.get();
      o2 = b2.get();
    }
    """

    def test_ci_conflates_container_contents_through_methods(self):
        # ci merges `this` in put, but the *objects* still have distinct
        # fields — the conflation shows at `get` returns.
        r = solve(parse_program(self.CONTAINER), selector_for("ci"))
        assert pts_sites(r, "<Main>.main", "o1") == {3, 4}

    def test_2obj_distinguishes_container_contents(self):
        r = solve(parse_program(self.CONTAINER), selector_for("2obj"))
        assert pts_sites(r, "<Main>.main", "o1") == {3}
        assert pts_sites(r, "<Main>.main", "o2") == {4}

    def test_2type_conflates_same_class_containers(self):
        # both boxes are allocated in <Main>, so 2type cannot separate them
        r = solve(parse_program(self.CONTAINER), selector_for("2type"))
        assert pts_sites(r, "<Main>.main", "o1") == {3, 4}

    def test_heap_context_distinguishes_factory_allocations(self):
        src = """
        class F { method mk() { o = new Object(); return o; } }
        main {
          f = new F(); g = new F();
          a = f.mk();
          b = g.mk();
        }
        """
        r = solve(parse_program(src), selector_for("2obj"))
        a = r.var_points_to("<Main>.main", "a")
        b = r.var_points_to("<Main>.main", "b")
        assert len(a) == 1 and len(b) == 1
        # same allocation site, different heap contexts
        assert {d.site_key for d in a} == {d.site_key for d in b}
        assert {d.heap_context for d in a} != {d.heap_context for d in b}


class TestTimeout:
    def test_timeout_raises(self, tiny_program):
        solver = Solver(tiny_program, selector_for("2obj"),
                        governor=ResourceGovernor.from_limits(wall_seconds=0.0))
        with pytest.raises(TimeBudgetExceeded) as info:
            solver.solve()
        assert info.value.budget == 0.0
        assert info.value.iterations == 0

    def test_no_timeout_when_fast(self, tiny_program):
        governor = ResourceGovernor.from_limits(wall_seconds=60.0)
        result = Solver(tiny_program, governor=governor).solve()
        assert result.reachable_methods()


class TestStats:
    def test_stats_fields_present(self, figure1_program):
        r = solve(figure1_program)
        stats = r.stats()
        for key in ("selector", "heap_model", "abstract_objects",
                    "call_graph_edges", "reachable_methods", "iterations"):
            assert key in stats
        assert stats["abstract_objects"] == 6

    def test_unreachable_code_not_analyzed(self):
        src = """
        class A { method dead() { d = new Object(); return d; } }
        main { a = new A(); }
        """
        r = solve(parse_program(src))
        assert "A.dead" not in r.reachable_methods()
        assert r.object_count == 1

"""Class-granular virtual dispatch.

Under a selector that ignores the receiver (ci, k-call-site, and
introspective over either) the solver dispatches each virtual call site
once per receiver *class*: one class's numbered objects form one
contiguous id block (``HierarchyNumbering.own_end``), dispatched as one
bit-vector slice.  Object- and type-sensitive selectors, and ids above
the numbered block (heap clones), keep one attempt per object.  These
tests pin the work count of both paths and compare each path, including
a delta that mixes numbered and overflow ids, with the reference solver.
"""

from __future__ import annotations

import pytest

from repro.analysis import run_introspective
from repro.frontend import parse_program
from repro.pta.bitset import bits_to_list
from repro.pta.context import (
    CallSiteSensitive,
    ContextInsensitive,
    IntrospectiveSensitive,
    ObjectSensitive,
    TypeSensitive,
    ignores_receiver,
    selector_for,
)
from repro.pta.solver import Solver
from repro.workloads.corpus import corpus_names, corpus_program

import tests.test_paper_examples as paper
from tests.test_reference_solver import (
    COPY_CYCLE_SOURCE,
    assert_matches_reference,
)


def two_class_receiver_source(n: int) -> str:
    """One call site whose receiver holds ``n`` objects of ``B`` (which
    overrides ``A.m``) and ``n`` of ``C`` (which inherits it)."""
    allocs = "\n".join(f"  x = new {cls}();"
                       for cls in ("B", "C") for _ in range(n))
    return f"""
class A {{ method m() {{ return this; }} }}
class B extends A {{ method m() {{ return this; }} }}
class C extends A {{ }}
main {{
{allocs}
  r = x.m();
}}
"""


class TestWorkCount:
    N = 5

    @pytest.fixture(scope="class")
    def program(self):
        return parse_program(two_class_receiver_source(self.N))

    def test_ci_dispatches_once_per_class(self, program):
        result = Solver(program, selector_for("ci")).solve()
        assert result.stats()["count_dispatch_attempts"] == 2
        assert {callee for _, callee in result.call_graph_edges()} == {
            "A.m", "B.m"}
        assert len(result.var_points_to_ids("A.m", "this")) == self.N
        assert len(result.var_points_to_ids("B.m", "this")) == self.N
        assert_matches_reference(program, result)

    def test_2obj_dispatches_once_per_object(self, program):
        result = Solver(program, selector_for("2obj")).solve()
        assert result.stats()["count_dispatch_attempts"] == 2 * self.N
        assert_matches_reference(program, result)


class TestEligibility:
    @pytest.mark.parametrize("selector, expected", [
        (ContextInsensitive(), True),
        (CallSiteSensitive(2), True),
        (ObjectSensitive(2), False),
        (TypeSensitive(2), False),
        (IntrospectiveSensitive(ContextInsensitive(), bool), True),
        (IntrospectiveSensitive(CallSiteSensitive(1), bool), True),
        (IntrospectiveSensitive(ObjectSensitive(2), bool), False),
        (IntrospectiveSensitive(TypeSensitive(3), bool), False),
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_ignores_receiver(self, selector, expected):
        assert ignores_receiver(selector) is expected


#: Under 2cs, ``Box`` allocates in a non-empty heap context, so its
#: ``Item`` and ``Special`` objects are clones above the numbered block.
#: ``h`` only reaches ``Runner`` after a clone has dispatched, by which
#: time ``y`` holds numbered ``Item``/``Special`` objects and the three
#: clones; linking ``h.run(y)`` pushes all of them to ``p`` as one delta.
MIXED_DELTA_SOURCE = """
class Item {
  method get() { return this; }
  method runner() { q = new Runner(); return q; }
}
class Special extends Item { method get() { return this; } }
class Box {
  method make() { b = new Item(); return b; }
  method special() { s = new Special(); return s; }
}
class Runner { method run(p) { r = p.get(); return r; } }
main {
  f = new Box();
  i1 = f.make();
  i2 = f.make();
  i3 = f.special();
  y = new Item();
  y = new Special();
  y = new Item();
  y = new Special();
  y = i1;
  y = i2;
  y = i3;
  h = i1.runner();
  out = h.run(y);
}
"""


def test_mixed_numbered_and_overflow_delta():
    program = parse_program(MIXED_DELTA_SOURCE)
    solver = Solver(program, selector_for("2cs"))
    count = solver._numbering.count
    deltas = []
    process = solver._process_var_delta

    def recording(frame, slot, delta):
        if frame.method.qualified_name == "Runner.run" \
                and frame.layout.names[slot] == "p":
            deltas.append(delta)
        process(frame, slot, delta)

    solver._process_var_delta = recording
    result = solver.solve()
    # precondition: one delta at the receiver held both kinds of ids
    ids = [bits_to_list(delta) for delta in deltas]
    assert any(
        sum(o < count for o in objs) >= 4 and sum(o >= count for o in objs) >= 3
        for objs in ids), (count, ids)
    assert_matches_reference(program, result)


@pytest.fixture(scope="module")
def programs(figure1_program):
    named = {
        "figure1": figure1_program,
        "figure7": parse_program(paper.TestFigure7AndExample32.SOURCE),
        "copy_cycle": parse_program(COPY_CYCLE_SOURCE),
        "mixed_delta": parse_program(MIXED_DELTA_SOURCE),
    }
    for name in corpus_names():
        named[name] = corpus_program(name)
    return named


PROGRAM_NAMES = ["figure1", "figure7", "copy_cycle", "mixed_delta",
                 *corpus_names()]


@pytest.mark.parametrize("base", ["2cs", "2obj"])
@pytest.mark.parametrize("name", PROGRAM_NAMES)
def test_introspective_matches_reference(programs, name, base):
    """A 2cs base takes the class path, a 2obj base the per-object
    path.  Threshold 1 refines only methods with at most one receiver
    in the pre-analysis, so refined and unrefined callees both occur
    across these programs."""
    program = programs[name]
    run = run_introspective(program, base, threshold=1)
    selector = run.result._solver.selector
    assert ignores_receiver(selector) is (base == "2cs")
    assert_matches_reference(program, run.result, selector=selector)

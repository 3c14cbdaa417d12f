"""Frame layouts against the construction they replaced.

``_FrameLayout`` picks each statement's kind from one table keyed by its
exact class and numbers slots with ``dict.setdefault``.  The oracle here
is the old construction, kept verbatim in shape: an ``isinstance``
ladder with ``slot``/``call``/``uses_of`` closures.  Every layout field
must be equal, with ``names`` and ``uses`` in the same order, on every
method of a hand-written program with every statement kind, of
Hypothesis programs and of the ``mahjong_pipeline`` plan programs
(seed 1).
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings

from repro.frontend import parse_program
from repro.ir.statements import (
    Cast,
    Catch,
    Copy,
    Invoke,
    Load,
    New,
    Return,
    StaticInvoke,
    StaticLoad,
    StaticStore,
    Store,
    Throw,
)
from repro.pta.solver import _FrameLayout
from repro.workloads.generator import generate
from repro.workloads.profiles import profile_spec

from perfbench.cells import MahjongPipeline
from tests.program_strategies import ir_programs

FIELDS = _FrameLayout.__slots__


def ladder_layout(method):
    """The layout fields as the ``isinstance`` ladder built them."""
    slots = {}

    def slot(name):
        index = slots.get(name)
        if index is None:
            index = slots[name] = len(slots)
        return index

    def call(stmt):
        target = None if stmt.target is None else slot(stmt.target)
        return stmt, target, tuple(slot(arg) for arg in stmt.args)

    if not method.is_static:
        slot("this")
    params = tuple(slot(p) for p in method.params)
    allocs, copies, casts, static_loads, static_stores = [], [], [], [], []
    throws, catches, static_invokes, returns = [], [], [], []
    uses = {}

    def uses_of(base):
        index = slot(base)
        entry = uses.get(index)
        if entry is None:
            entry = uses[index] = ([], [], [])
        return entry

    for stmt in method.statements:
        if isinstance(stmt, New):
            allocs.append((slot(stmt.target), stmt.site, stmt.class_name))
        elif isinstance(stmt, Copy):
            copies.append((slot(stmt.source), slot(stmt.target)))
        elif isinstance(stmt, Cast):
            casts.append((slot(stmt.source), slot(stmt.target),
                          stmt.class_name, stmt.cast_site))
        elif isinstance(stmt, StaticLoad):
            static_loads.append((stmt.class_name, stmt.field_name,
                                 slot(stmt.target)))
        elif isinstance(stmt, StaticStore):
            static_stores.append((slot(stmt.source), stmt.class_name,
                                  stmt.field_name))
        elif isinstance(stmt, StaticInvoke):
            static_invokes.append(call(stmt))
        elif isinstance(stmt, Load):
            uses_of(stmt.base)[0].append((slot(stmt.target), stmt.field_name))
        elif isinstance(stmt, Store):
            uses_of(stmt.base)[1].append((slot(stmt.source), stmt.field_name))
        elif isinstance(stmt, Invoke):
            uses_of(stmt.base)[2].append(call(stmt))
        elif isinstance(stmt, Return):
            returns.append(slot(stmt.source))
        elif isinstance(stmt, Throw):
            throws.append(slot(stmt.source))
        elif isinstance(stmt, Catch):
            catches.append((slot(stmt.target), stmt.class_name))
    return {
        "names": tuple(slots),
        "size": len(slots) + 1,
        "exc": len(slots),
        "params": params,
        "returns": tuple(returns),
        "allocs": tuple(allocs),
        "copies": tuple(copies),
        "casts": tuple(casts),
        "static_loads": tuple(static_loads),
        "static_stores": tuple(static_stores),
        "throws": tuple(throws),
        "catches": tuple(catches),
        "static_invokes": tuple(static_invokes),
        "virtual_sites": tuple(stmt.call_site for _, _, invokes in uses.values()
                               for stmt, _, _ in invokes),
        "uses": [(index, (tuple(loads), tuple(stores), tuple(invokes)))
                 for index, (loads, stores, invokes) in uses.items()],
    }


def assert_layouts_match(program):
    for method in program.all_methods():
        layout = _FrameLayout(method)
        got = {name: getattr(layout, name) for name in FIELDS}
        got["uses"] = list(got["uses"].items())  # order counts too
        assert got == ladder_layout(method), method.qualified_name


def plan_program(profile, scale, seed=1):
    """A plan cell's program, its generator seed drawn from the run seed
    as ``perfbench/cells.py`` (``seeded_program``) draws it."""
    spec = profile_spec(profile, scale)
    draw = random.Random(f"{seed}:{profile}").randrange(1, 2 ** 31)
    return generate(dataclasses.replace(spec, seed=draw))


#: every statement kind, ``x = null`` (no kind: no slot) included, each
#: first with all its variables unseen (so the order in which a kind
#: numbers them shows) and then with variables first used by other kinds
EVERY_KIND_SOURCE = """
class E { }
class A {
  field f: Object;
  static field s: Object;
  method m(p, q) {
    n = null;
    d1 = s1;
    c1 = (A) s2;
    r1 = b1.f;
    b2.f = s3;
    u1 = b3.m(a1, a2);
    w1 = A::k(a3);
    A::s = s4;
    r = p.f;
    p.f = q;
    c = (A) r;
    t = A::s;
    A::s = c;
    u = t.m(r, n);
    p.m(q, u);
    w = A::k(u);
    d = c;
    e = new E();
    throw e;
    h = catch (E);
    return w;
  }
  static method k(a) { z = null; return a; }
}
main { a = new A(); b = a.m(a, a); }
"""


def test_every_statement_kind():
    assert_layouts_match(parse_program(EVERY_KIND_SOURCE))


@given(ir_programs())
@settings(max_examples=80, deadline=None)
def test_generated_programs(program):
    assert_layouts_match(program)


@pytest.mark.parametrize("profile, scale",
                         [(p, s) for p, s, _ in MahjongPipeline.PLAN])
def test_mahjong_plan_programs(profile, scale):
    assert_layouts_match(plan_program(profile, scale))

"""Unit tests for program validation."""

import pytest

from repro.ir import ProgramBuilder
from repro.ir.validate import ValidationError, ensure_valid, validate


def make_base():
    b = ProgramBuilder()
    b.add_class("A")
    b.add_field("A", "f", "A")
    b.add_field("A", "sf", "A", is_static=True)
    with b.method("A", "foo", params=("x",)) as m:
        m.ret("x")
    with b.method("A", "smk", static=True) as m:
        r = m.new("A")
        m.ret(r)
    return b


def test_valid_program_has_no_problems():
    b = make_base()
    with b.main() as m:
        a = m.new("A")
        m.store(a, "f", a)
        c = m.load(a, "f")
        m.invoke(a, "foo", c, target="r")
        m.static_invoke("A", "smk", target="s")
        m.static_store("A", "sf", "s")
        m.cast("A", "r")
    assert validate(b.build()) == []


def test_unknown_allocation_class_reported():
    b = make_base()
    with b.main() as m:
        m.new("Ghost")
    problems = validate(b.build())
    assert any("Ghost" in p for p in problems)


def test_unknown_cast_class_reported():
    b = make_base()
    with b.main() as m:
        a = m.new("A")
        m.cast("Ghost", a)
    assert any("Ghost" in p for p in validate(b.build()))


def test_undeclared_field_reported():
    b = make_base()
    with b.main() as m:
        a = m.new("A")
        m.load(a, "nothere")
    assert any("nothere" in p for p in validate(b.build()))


def test_undeclared_static_field_reported():
    b = make_base()
    with b.main() as m:
        m.static_load("A", "ghostfield")
    assert any("ghostfield" in p for p in validate(b.build()))


def test_instance_field_not_usable_statically():
    b = make_base()
    with b.main() as m:
        m.static_load("A", "f")  # f is an instance field
    assert any("static field" in p for p in validate(b.build()))


def test_unknown_static_method_reported():
    b = make_base()
    with b.main() as m:
        m.static_invoke("A", "ghost")
    assert any("ghost" in p for p in validate(b.build()))


def test_static_call_arity_mismatch_reported():
    b = make_base()
    with b.main() as m:
        a = m.new("A")
        m.static_invoke("A", "smk", a)  # smk takes no params
    assert any("arity" in p for p in validate(b.build()))


def test_virtual_call_with_wrong_arity_reported():
    b = make_base()
    with b.main() as m:
        a = m.new("A")
        m.invoke(a, "foo")  # foo takes one param
    assert any("foo" in p for p in validate(b.build()))


def test_missing_main_reported():
    from repro.ir.program import Program
    from repro.ir.types import TypeHierarchy

    program = Program(TypeHierarchy())
    program.finalize()
    assert any("main" in p for p in validate(program))


def test_ensure_valid_raises_with_details():
    b = make_base()
    with b.main() as m:
        m.new("Ghost")
    with pytest.raises(ValidationError, match="Ghost"):
        ensure_valid(b.build())


def test_ensure_valid_returns_program():
    b = make_base()
    with b.main() as m:
        m.new("A")
    p = b.build()
    assert ensure_valid(p) is p


def test_problem_list_is_pinned_in_order():
    """One problem of every kind, across two methods and a missing
    ``main``: the exact texts and their order."""
    from repro.ir.program import ClassDecl, FieldDecl, Method, Program
    from repro.ir.statements import (
        Cast, Catch, Invoke, Load, New, StaticInvoke, StaticLoad,
        StaticStore, Store,
    )
    from repro.ir.types import TypeHierarchy

    hierarchy = TypeHierarchy()
    decl = ClassDecl(hierarchy.add_class("A"))
    decl.add_field(FieldDecl("f", "A"))
    decl.add_field(FieldDecl("sf", "A", is_static=True))
    program = Program(hierarchy)
    program.add_class(decl)
    decl.add_method(Method("A", "foo", ("x",), [
        New("a", "Ghost", 1),
        Load("b", "a", "nothere"),
        Store("a", "gone", "b"),
        StaticLoad("c", "A", "missing"),
        StaticStore("Nowhere", "sf", "c"),
        Invoke("d", "a", "foo", (), 1),
    ]))
    decl.add_method(Method("A", "smk", (), [
        Catch("e", "Phantom"),
        Cast("g", "Phantom", "e", 1),
        StaticInvoke(None, "A", "ghost", (), 2),
        StaticInvoke("h", "A", "smk", ("e",), 3),
        StaticInvoke(None, "Nowhere", "smk", (), 4),
        Load("i", "e", "f"),
    ], is_static=True))
    program.finalize()
    assert validate(program) == [
        "program has no main method",
        "A.foo: a = new Ghost();  // site 1: unknown class 'Ghost'",
        "A.foo: b = a.nothere;: field 'nothere' never declared",
        "A.foo: a.gone = b;: field 'gone' never declared",
        "A.foo: c = A.missing;: static field A.missing not declared",
        "A.foo: Nowhere.sf = c;: unknown class 'Nowhere'",
        "A.foo: Nowhere.sf = c;: static field Nowhere.sf not declared",
        "A.foo: d = a.foo();  // call site 1: no class declares instance "
        "method 'foo' with 0 params",
        "A.smk: e = catch (Phantom);: unknown class 'Phantom'",
        "A.smk: g = (Phantom) e;: unknown class 'Phantom'",
        "A.smk: A.ghost();  // call site 2: static method A.ghost not declared",
        "A.smk: h = A.smk(e);  // call site 3: arity mismatch calling A.smk "
        "(1 args, 0 params)",
        "A.smk: Nowhere.smk();  // call site 4: unknown class 'Nowhere'",
        "A.smk: Nowhere.smk();  // call site 4: static method Nowhere.smk "
        "not declared",
    ]

"""Unit tests for Program / ClassDecl / Method containers."""

import pytest

from repro.ir import ProgramBuilder
from repro.ir.program import FieldDecl, Method
from repro.ir.statements import New, Return


def build_dispatch_program():
    b = ProgramBuilder()
    b.add_class("A")
    b.add_field("A", "f", "A")
    b.add_class("B", "A")
    b.add_field("B", "g", "A")
    b.add_class("C", "B")
    with b.method("A", "foo") as m:
        m.ret("this")
    with b.method("B", "foo") as m:
        m.ret("this")
    with b.method("A", "bar", params=("x",)) as m:
        m.ret("x")
    with b.method("A", "mk", static=True) as m:
        r = m.new("A")
        m.ret(r)
    with b.main() as m:
        a = m.new("A")
        m.invoke(a, "foo")
    return b.build()


class TestDispatch:
    def test_dispatch_finds_own_method(self):
        p = build_dispatch_program()
        assert p.dispatch("B", "foo").qualified_name == "B.foo"

    def test_dispatch_walks_to_superclass(self):
        p = build_dispatch_program()
        assert p.dispatch("C", "bar").qualified_name == "A.bar"
        assert p.dispatch("C", "foo").qualified_name == "B.foo"

    def test_dispatch_unknown_method_is_none(self):
        p = build_dispatch_program()
        assert p.dispatch("A", "nope") is None

    def test_dispatch_skips_static_methods(self):
        p = build_dispatch_program()
        assert p.dispatch("A", "mk") is None

    def test_dispatch_cached_result_stable(self):
        p = build_dispatch_program()
        first = p.dispatch("C", "foo")
        assert p.dispatch("C", "foo") is first

    def test_static_method_resolution(self):
        p = build_dispatch_program()
        assert p.static_method("A", "mk").qualified_name == "A.mk"
        assert p.static_method("A", "foo") is None
        assert p.static_method("Ghost", "mk") is None


class TestFields:
    def test_fields_of_class_includes_inherited(self):
        p = build_dispatch_program()
        assert set(p.fields_of_class("C")) == {"f", "g"}
        assert set(p.fields_of_class("A")) == {"f"}

    def test_static_fields_excluded_from_instance_fields(self):
        b = ProgramBuilder()
        b.add_class("A")
        b.add_field("A", "inst", "A")
        b.add_field("A", "stat", "A", is_static=True)
        with b.main() as m:
            m.new("A")
        p = b.build()
        assert set(p.fields_of_class("A")) == {"inst"}


class TestSiteTables:
    def test_alloc_site_lookup(self):
        p = build_dispatch_program()
        sites = p.alloc_sites()
        assert len(sites) == 2
        for site, stmt in sites.items():
            assert p.alloc_site(site) is stmt

    def test_containing_class_of_site(self):
        p = build_dispatch_program()
        by_class = {
            p.containing_class_of_site(site) for site in p.alloc_sites()
        }
        assert by_class == {"A", "<Main>"}

    def test_duplicate_alloc_site_rejected(self):
        b = ProgramBuilder()
        b.add_class("A")
        with b.main() as m:
            m.raw(New("x", "A", 1))
            m.raw(New("y", "A", 1))
        with pytest.raises(ValueError, match="duplicate allocation site"):
            b.build()

    def test_stats(self):
        p = build_dispatch_program()
        stats = p.stats()
        assert stats["classes"] == 3
        assert stats["alloc_sites"] == 2
        assert stats["call_sites"] == 1
        assert stats["methods"] == 5  # 4 declared + main


class TestMethod:
    def test_local_variables_include_receiver_and_params(self):
        method = Method("A", "m", ("p", "q"),
                        [New("x", "A", 1), Return("x")])
        names = method.local_variables()
        assert names[0] == "this"
        assert set(names) == {"this", "p", "q", "x"}

    def test_static_method_has_no_receiver(self):
        method = Method("A", "m", (), [Return("r")], is_static=True)
        assert "this" not in method.local_variables()

    def test_duplicate_method_rejected(self):
        b = ProgramBuilder()
        b.add_class("A")
        with b.method("A", "foo") as m:
            m.ret("this")
        with pytest.raises(ValueError, match="duplicate method"):
            with b.method("A", "foo") as m:
                m.ret("this")

    def test_duplicate_field_rejected(self):
        b = ProgramBuilder()
        b.add_class("A")
        b.add_field("A", "f", "A")
        with pytest.raises(ValueError, match="duplicate field"):
            b.add_field("A", "f", "A")

"""Unit tests for the field points-to graph."""

import pytest

from repro.core.fpg import NULL_OBJECT, NULL_TYPE_NAME, FieldPointsToGraph, build_fpg
from repro.frontend import parse_program
from repro.pta import AllocationTypeAbstraction, selector_for, solve
from repro.pta.heapmodel import AllocationSiteAbstraction
from repro.workloads import TINY, corpus_names, corpus_program, generate, load_profile

from tests.conftest import FIGURE1_SOURCE
from tests.reference_solver import reference_solve


def small_fpg():
    fpg = FieldPointsToGraph()
    fpg.add_object(1, "T")
    fpg.add_object(2, "U")
    fpg.add_object(3, "U")
    fpg.add_edge(1, "f", 2)
    fpg.add_edge(1, "f", 3)
    fpg.add_edge(2, "g", 1)  # cycle
    return fpg


class TestConstruction:
    def test_null_node_always_present(self):
        fpg = FieldPointsToGraph()
        assert NULL_OBJECT in fpg
        assert fpg.type_of(NULL_OBJECT) == NULL_TYPE_NAME
        assert len(fpg) == 0

    def test_node_zero_reserved(self):
        fpg = FieldPointsToGraph()
        with pytest.raises(ValueError, match="reserved"):
            fpg.add_object(0, "T")

    def test_type_conflict_rejected(self):
        fpg = FieldPointsToGraph()
        fpg.add_object(1, "T")
        with pytest.raises(ValueError, match="already has type"):
            fpg.add_object(1, "U")

    def test_readding_same_type_is_noop(self):
        fpg = FieldPointsToGraph()
        fpg.add_object(1, "T")
        fpg.add_object(1, "T")
        assert len(fpg) == 1

    def test_edges_require_known_nodes(self):
        fpg = FieldPointsToGraph()
        fpg.add_object(1, "T")
        with pytest.raises(KeyError):
            fpg.add_edge(1, "f", 9)
        with pytest.raises(KeyError):
            fpg.add_edge(9, "f", 1)

    def test_null_field_edge(self):
        fpg = FieldPointsToGraph()
        fpg.add_object(1, "T")
        fpg.add_null_field(1, "f")
        assert fpg.points_to(1, "f") == frozenset([NULL_OBJECT])


class TestQueries:
    def test_points_to_and_fields_of(self):
        fpg = small_fpg()
        assert fpg.points_to(1, "f") == frozenset([2, 3])
        assert fpg.points_to(1, "missing") == frozenset()
        assert set(fpg.fields_of(1)) == {"f"}

    def test_reachability_follows_cycles(self):
        fpg = small_fpg()
        assert fpg.reachable_from(1) == {1, 2, 3}
        assert fpg.reachable_from(2) == {1, 2, 3}
        assert fpg.reachable_from(3) == {3}

    def test_edge_count_and_stats(self):
        fpg = small_fpg()
        assert fpg.edge_count() == 3
        stats = fpg.stats()
        assert stats == {"objects": 3, "types": 2, "fields": 2, "edges": 3}

    def test_objects_excludes_null(self):
        fpg = small_fpg()
        fpg.add_null_field(3, "f")
        assert set(fpg.objects()) == {1, 2, 3}


class TestBuildFromPreAnalysis:
    SOURCE = """
    class A { field f: Object; field g: Object; }
    main {
      a = new A();
      v = new Object();
      a.f = v;
    }
    """

    def test_nodes_are_allocation_sites(self):
        result = solve(parse_program(self.SOURCE))
        fpg = build_fpg(result)
        assert set(fpg.objects()) == {1, 2}
        assert fpg.type_of(1) == "A"
        assert fpg.type_of(2) == "Object"

    def test_field_edges_from_points_to(self):
        fpg = build_fpg(solve(parse_program(self.SOURCE)))
        assert fpg.points_to(1, "f") == frozenset([2])

    def test_unassigned_declared_field_points_to_null(self):
        fpg = build_fpg(solve(parse_program(self.SOURCE)))
        assert fpg.points_to(1, "g") == frozenset([NULL_OBJECT])

    def test_rejects_context_sensitive_pre_analysis(self):
        result = solve(parse_program(self.SOURCE), selector_for("2obj"))
        with pytest.raises(ValueError, match="context-insensitive"):
            build_fpg(result)

    def test_rejects_non_alloc_site_heap(self):
        program = parse_program(self.SOURCE)
        result = solve(program, heap_model=AllocationTypeAbstraction(program))
        with pytest.raises(ValueError, match="allocation-site"):
            build_fpg(result)

    def test_inherited_fields_get_null_completion(self):
        src = """
        class A { field f: Object; }
        class B extends A { field g: Object; }
        main { b = new B(); }
        """
        fpg = build_fpg(solve(parse_program(src)))
        assert fpg.points_to(1, "f") == frozenset([NULL_OBJECT])
        assert fpg.points_to(1, "g") == frozenset([NULL_OBJECT])


def reference_fpg(program):
    """``(types, edges)`` of the FPG assembled from the reference
    solver's ci, allocation-site field facts, each object's unassigned
    declared fields completed with null through
    ``Program.fields_of_class``."""
    ref = reference_solve(program, selector_for("ci"),
                          AllocationSiteAbstraction())
    types = {NULL_OBJECT: NULL_TYPE_NAME}
    for (site, _), class_name in ref.obj_class.items():
        types[site] = class_name
    edges = set()
    for node, objs in ref.pts.items():
        if node[0] == "field":
            (site, _), field = node[1], node[2]
            edges |= {(site, field, target) for target, _ in objs}
    assigned = {(site, field) for site, field, _ in edges}
    for site, class_name in types.items():
        if site == NULL_OBJECT or class_name not in program.hierarchy:
            continue
        for field in program.fields_of_class(class_name):
            if (site, field) not in assigned:
                edges.add((site, field, NULL_OBJECT))
    return types, edges


def reference_programs():
    yield "figure1", parse_program(FIGURE1_SOURCE)
    yield "tiny", generate(TINY)
    for name in corpus_names():
        yield name, corpus_program(name)
    for profile in ("antlr", "fop", "luindex", "lusearch"):
        yield f"{profile}@0.3", load_profile(profile, 0.3)


class TestBuildAgainstReference:
    """``build_fpg`` reads the solver's field bit-vectors; the oracle
    assembles the same graph from the reference solver's facts."""

    @pytest.mark.parametrize("name", [name for name, _ in reference_programs()])
    def test_nodes_types_and_edges_match(self, name):
        program = dict(reference_programs())[name]
        fpg = build_fpg(solve(program))
        types, edges = reference_fpg(program)
        assert {obj: fpg.type_of(obj)
                for obj in (NULL_OBJECT, *fpg.objects())} == types
        assert set(fpg.edges()) == edges
        fpg.check_integrity()

"""Hierarchy-ordered object numbering: unit and differential tests.

Covers the pre-order slot assignment itself (every class's subtype set
must occupy one contiguous id range — the invariant that makes range
masks possible), :class:`repro.pta.bitset.RangeFilterMasks` against a
per-object scatter oracle, pickle hygiene for the process-pool path,
and the tentpole invariant: the numbering only relabels ids, so every
observable result equals the reference solver's
(:mod:`tests.reference_solver`), which has no numbering at all.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings

from repro.analysis import run_analysis
from repro.frontend import parse_program
from repro.pta.bitset import RangeFilterMasks, bits_from_ids, iter_bits
from repro.pta.context import selector_for
from repro.pta.heapmodel import AllocationSiteAbstraction
from repro.pta.numbering import HierarchyNumbering
from repro.pta.solver import Solver
from repro.workloads import TINY, generate, load_profile

from tests.program_strategies import ir_programs
from tests.reference_solver import reference_solve
from tests.test_reference_solver import (
    assert_matches_reference,
    assert_run_matches_reference,
)

#: A diamond-free but branchy hierarchy with one class (``Leaf``) that
#: is never allocated and one (``Dead``) allocated only in dead code.
HIERARCHY_SOURCE = """
class A { field f: Object; }
class B extends A { }
class C extends A { }
class D extends B { }
class Leaf extends C { }
class Dead { method never() { d = new Dead(); return d; } }
main {
  a = new A();
  b = new B();
  c = new C();
  d = new D();
  o = new Object();
  b2 = new B();
  a.f = o;
}
"""


@pytest.fixture(scope="module")
def hierarchy_program():
    return parse_program(HIERARCHY_SOURCE)


# ----------------------------------------------------------------------
# The pre-order slot assignment
# ----------------------------------------------------------------------
def assert_contiguous_ranges(program, numbering):
    """The invariant that makes range masks possible: for every class
    ``C``, the reserved slots of keys whose class is a (reflexive,
    transitive) subtype of ``C`` are exactly ``range(lo, hi)``."""
    hierarchy = program.hierarchy
    for name, (lo, hi) in numbering.class_ranges.items():
        member_slots = {
            slot for key, slot in numbering.slots.items()
            if hierarchy.is_subtype_names(numbering.key_class[key], name)
        }
        assert member_slots == set(range(lo, hi)), name


def assert_own_blocks(numbering):
    """The invariant class-granular dispatch slices by: ``[slot,
    own_end[slot])`` holds only keys of the slot's own class, and the
    next class's keys begin at ``own_end[slot]``."""
    classes = [numbering.key_class[key] for key in numbering.slot_keys]
    own_end = numbering.own_end
    assert len(own_end) == numbering.count
    for slot, end in enumerate(own_end):
        assert slot < end <= numbering.count
        assert set(classes[slot:end]) == {classes[slot]}, slot
        if end < numbering.count:
            assert classes[end] != classes[slot], slot
        # every slot of one block shares its end
        assert own_end[end - 1] == end


class TestHierarchyNumbering:
    @pytest.fixture(scope="class")
    def numbering(self, hierarchy_program):
        return HierarchyNumbering.build(hierarchy_program,
                                        AllocationSiteAbstraction())

    def test_slots_are_dense_and_invertible(self, hierarchy_program, numbering):
        assert numbering.count == len(numbering.slot_keys)
        assert sorted(numbering.slots.values()) == list(range(numbering.count))
        for key, slot in numbering.slots.items():
            assert numbering.slot_keys[slot] == key
        # every distinct site key of the program got a slot (all classes
        # here are declared), including the dead-code allocation
        sites = hierarchy_program.alloc_sites()
        keys = {AllocationSiteAbstraction().site_key(s, st.class_name)
                for s, st in sites.items()}
        assert set(numbering.slots) == keys

    def test_subtype_ranges_contiguous(self, hierarchy_program, numbering):
        assert_contiguous_ranges(hierarchy_program, numbering)
        assert_own_blocks(numbering)

    def test_range_shapes(self, numbering):
        ranges = numbering.class_ranges
        # Object's range spans every slot; a never-allocated class gets
        # an empty range (lo == hi) at the right position
        assert ranges["Object"] == (0, numbering.count)
        lo, hi = ranges["Leaf"]
        assert lo == hi
        # A's range covers its own two B slots, C, D (B's subtree nests
        # inside A's)
        a_lo, a_hi = ranges["A"]
        b_lo, b_hi = ranges["B"]
        assert a_lo <= b_lo <= b_hi <= a_hi
        assert a_hi - a_lo == 5  # A, B, B, C, D

    def test_stats_shape(self, numbering):
        stats = numbering.stats()
        assert stats["numbered_slots"] == numbering.count
        assert stats["ranged_classes"] == len(numbering.class_ranges)
        assert 0 < stats["numbered_classes"] <= stats["ranged_classes"]

    @given(program=ir_programs())
    @settings(max_examples=30, deadline=None)
    def test_ranges_contiguous_on_random_programs(self, program):
        numbering = HierarchyNumbering.build(program,
                                             AllocationSiteAbstraction())
        assert_contiguous_ranges(program, numbering)
        assert_own_blocks(numbering)


# ----------------------------------------------------------------------
# Range masks vs the scatter oracle
# ----------------------------------------------------------------------
def scatter_mask(object_classes, is_subtype, filter_class):
    """The per-object definition of a filter mask: bit ``i`` set exactly
    when object ``i``'s class is a subtype of ``filter_class``."""
    return bits_from_ids(i for i, cls in enumerate(object_classes)
                         if is_subtype(cls, filter_class))


class TestRangeFilterMasks:
    def test_matches_scatter_oracle_after_solve(self, hierarchy_program):
        solver = Solver(hierarchy_program)
        solver.solve()
        masks = solver._filter_masks
        assert isinstance(masks, RangeFilterMasks)
        for cls in [*hierarchy_program.classes, "Ghost"]:
            assert masks.mask_for(cls) == scatter_mask(
                solver._object_class, solver._is_subtype_name, cls), cls
        assert masks.mask_for("Ghost") == 0

    def test_range_builds_need_no_subtype_tests(self, hierarchy_program):
        """With every object numbered (no overflow ids), the range path
        answers every mask with zero subtype tests."""
        numbering = HierarchyNumbering.build(hierarchy_program,
                                             AllocationSiteAbstraction())
        classes = [numbering.key_class[k] for k in numbering.slot_keys]
        masks = RangeFilterMasks(numbering.class_ranges, classes,
                                 hierarchy_program.hierarchy.is_subtype_names,
                                 start=numbering.count)
        for cls in numbering.class_ranges:
            masks.mask_for(cls)
        assert masks.range_builds == len(numbering.class_ranges)
        assert masks.subtype_tests == 0
        assert masks.extensions == 0
        assert masks.stats()["mask_range_builds"] == masks.range_builds

    def test_overflow_objects_extend_by_scatter(self, hierarchy_program):
        """Ids above the numbered block (here: interned by hand) are
        covered by the watermark scatter."""
        numbering = HierarchyNumbering.build(hierarchy_program,
                                             AllocationSiteAbstraction())
        hierarchy = hierarchy_program.hierarchy
        classes = [numbering.key_class[k] for k in numbering.slot_keys]
        masks = RangeFilterMasks(numbering.class_ranges, classes,
                                 hierarchy.is_subtype_names,
                                 start=numbering.count)
        before = masks.mask_for("A")
        classes.extend(["D", "Object"])  # mid-solve overflow interning
        after = masks.mask_for("A")
        assert after == before | (1 << numbering.count)  # D <: A, Object not
        assert masks.subtype_tests == 2
        for cls in hierarchy_program.classes:
            assert masks.mask_for(cls) == scatter_mask(
                classes, hierarchy.is_subtype_names, cls), cls

    def test_mask_bits_name_live_subtypes(self, hierarchy_program):
        """Decoded mask bits of a post-solve range mask are exactly the
        interned objects whose class is a subtype of the filter."""
        solver = Solver(hierarchy_program)
        result = solver.solve()
        masks = solver._filter_masks
        for cls in ("A", "B", "Object"):
            named = {o for o in result.objects()
                     if result.is_subtype(result.object_class(o), cls)}
            decoded = set(iter_bits(masks.mask_for(cls)))
            # reserved-but-unreached slots may set extra bits; every
            # *live* object must be classified exactly
            assert decoded & set(result.objects()) == named


# ----------------------------------------------------------------------
# The tentpole invariant: numbering only relabels ids
# ----------------------------------------------------------------------
class TestNumberingDifferential:
    @pytest.fixture(scope="class")
    def programs(self, figure1_program, hierarchy_program):
        return {
            "figure1": figure1_program,
            "hierarchy": hierarchy_program,
            "tiny": generate(TINY),
            "luindex": load_profile("luindex", 0.25),
        }

    @pytest.mark.parametrize("config", ["ci", "2cs", "2obj", "2type"])
    @pytest.mark.parametrize("name",
                             ["figure1", "hierarchy", "tiny", "luindex"])
    def test_four_way_matches(self, programs, name, config):
        program = programs[name]
        result = Solver(program, selector_for(config)).solve()
        assert_matches_reference(program, result)

    @pytest.mark.parametrize("config", ["M-2obj", "T-2type"])
    def test_pipeline_four_way(self, programs, config):
        """Full pipeline (pre-analysis + merge + main): the MAHJONG merge
        decisions and the main solve must both be numbering-blind."""
        program = programs["hierarchy"]
        assert_run_matches_reference(program, run_analysis(program, config))

    def test_unreached_slots_not_observable(self, programs):
        """The dead-code allocation reserves a slot but never
        materializes: the object count is the reference's, and live ids
        may have gaps."""
        program = programs["hierarchy"]
        solver = Solver(program)
        result = solver.solve()
        reference = reference_solve(program, selector_for("ci"))
        assert result.object_count == len(reference.obj_class)
        live = list(result.objects())
        assert len(live) == result.object_count
        assert live == sorted(live)
        # the Dead slot is reserved in the numbering but not live
        assert solver._numbering.count == result.object_count + 1


class TestHypothesisDifferential:
    @given(program=ir_programs())
    @settings(max_examples=25, deadline=None)
    def test_random_programs_four_way(self, program):
        assert_matches_reference(program, Solver(program).solve())

    @given(program=ir_programs())
    @settings(max_examples=10, deadline=None)
    def test_random_programs_context_sensitive(self, program):
        result = Solver(program, selector_for("2obj")).solve()
        assert_matches_reference(program, result)


# ----------------------------------------------------------------------
# Pickle hygiene (the `repro batch --jobs N` process-pool path)
# ----------------------------------------------------------------------
class TestPickleRoundTrips:
    def test_hierarchy_numbering_round_trip(self, hierarchy_program):
        numbering = HierarchyNumbering.build(hierarchy_program,
                                             AllocationSiteAbstraction())
        clone = pickle.loads(pickle.dumps(numbering))
        assert clone.slots == numbering.slots
        assert clone.slot_keys == numbering.slot_keys
        assert clone.class_ranges == numbering.class_ranges
        assert clone.count == numbering.count
        assert clone.own_end == numbering.own_end

    def test_range_filter_masks_round_trip(self, hierarchy_program):
        solver = Solver(hierarchy_program)
        solver.solve()
        masks = solver._filter_masks
        assert isinstance(masks, RangeFilterMasks)
        warm = {c: masks.mask_for(c) for c in hierarchy_program.classes}
        clone = pickle.loads(pickle.dumps(masks))
        assert len(clone) == 0
        assert clone.range_builds == 0
        for cls, mask in warm.items():
            assert clone.mask_for(cls) == mask
        assert clone.range_builds == len(warm)

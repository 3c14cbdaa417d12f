"""Unit tests for the bit-vector machinery (repro.pta.bitset)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pta.bitset import (
    RangeFilterMasks,
    bits_from_ids,
    bits_to_list,
    iter_bits,
    popcount,
)


class TestPrimitives:
    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(1) == 1
        assert popcount(0b1011) == 3
        assert popcount((1 << 5000) | 1) == 2

    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(1 << 4096)) == [4096]

    def test_bits_to_list_sparse_and_dense(self):
        # sparse path (≤16 bits: isolate-lowest-bit loop)
        sparse = bits_from_ids([0, 7, 300, 4095])
        assert bits_to_list(sparse) == [0, 7, 300, 4095]
        # dense path (>16 bits: byte-table decode)
        ids = list(range(0, 500, 3))
        assert bits_to_list(bits_from_ids(ids)) == ids

    def test_bits_from_ids_is_idempotent_union(self):
        assert bits_from_ids([3, 3, 3]) == 1 << 3
        assert bits_from_ids([]) == 0

    @given(st.sets(st.integers(0, 2000)))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, ids):
        bits = bits_from_ids(ids)
        assert popcount(bits) == len(ids)
        assert bits_to_list(bits) == sorted(ids)
        assert list(iter_bits(bits)) == sorted(ids)

    @given(st.sets(st.integers(0, 300)), st.sets(st.integers(0, 300)))
    @settings(max_examples=60, deadline=None)
    def test_bit_algebra_matches_set_algebra(self, a, b):
        ba, bb = bits_from_ids(a), bits_from_ids(b)
        assert set(bits_to_list(ba | bb)) == a | b
        assert set(bits_to_list(ba & bb)) == a & b
        # the solver's difference idiom: XOR out the common bits
        common = ba & bb
        assert set(bits_to_list(ba ^ common)) == a - b


class TestClassFilterMasks:
    """The watermark scatter of :class:`RangeFilterMasks`, on its own:
    no class ranges and no numbered block, so every object is an
    overflow id the scatter must cover."""

    @staticmethod
    def _is_subtype(sub: str, sup: str) -> bool:
        # toy hierarchy: A <: Object, B <: A <: Object
        chains = {"A": {"A", "Object"}, "B": {"B", "A", "Object"},
                  "Object": {"Object"}}
        return sup in chains.get(sub, ())

    def _scatter_masks(self, classes):
        return RangeFilterMasks({}, classes, self._is_subtype, start=0)

    def test_lazy_build_and_watermark_extension(self):
        classes = ["A", "B"]
        masks = self._scatter_masks(classes)
        assert len(masks) == 0
        assert masks.mask_for("A") == 0b11
        assert len(masks) == 1
        assert masks.extensions == 1
        # observed by reference: intern two more objects, refetch
        classes.append("Object")
        classes.append("B")
        assert masks.mask_for("A") == 0b1011
        assert masks.extensions == 2
        # unchanged universe: no further extension
        assert masks.mask_for("A") == 0b1011
        assert masks.extensions == 2

    def test_distinct_filters_distinct_masks(self):
        classes = ["A", "B", "Object"]
        masks = self._scatter_masks(classes)
        assert masks.mask_for("B") == 0b010
        assert masks.mask_for("Object") == 0b111
        assert masks.mask_for("Unknown") == 0
        stats = masks.stats()
        assert stats["masks"] == 3
        assert stats["mask_bits"] == 1 + 3 + 0

    def test_matches_solver_filter_semantics(self):
        """mask & delta must equal the per-object subtype filter."""
        classes = ["A", "B", "Object", "B", "A"]
        masks = self._scatter_masks(classes)
        delta = bits_from_ids([0, 1, 2, 3, 4])
        for filter_class in ("A", "B", "Object"):
            expected = {
                obj for obj in range(len(classes))
                if self._is_subtype(classes[obj], filter_class)
            }
            got = set(bits_to_list(delta & masks.mask_for(filter_class)))
            assert got == expected, filter_class

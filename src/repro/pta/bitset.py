"""Bitset machinery for points-to sets and class-hierarchy filter masks.

Abstract objects are interned to dense integer ids by the solver, so a
points-to set is representable as an arbitrary-precision Python ``int``
used as a bit-vector: bit ``i`` set ⇔ object ``i`` is in the set.  This
turns the solver's inner operations into single big-int instructions:

=====================  =============================
set union              ``a | b``
set difference         ``a & ~b``
membership             ``(a >> i) & 1``
emptiness              ``not a``
cardinality            ``popcount(a)``
cast filter            ``delta & mask(T)``
=====================  =============================

The cast-filter mask follows Toussi & Khademzadeh's class-hierarchy
bit-vector idea (PAPERS.md): for a filter class ``T``, ``mask(T)`` has
bit ``i`` set exactly when object ``i``'s class is a subtype of ``T``.
With objects numbered in hierarchy pre-order
(:mod:`repro.pta.numbering`) each mask over the numbered block is one
range; :class:`RangeFilterMasks` builds it in O(1) and extends it over
objects interned mid-solve with a per-mask watermark scatter, so a mask
is always complete with respect to the objects interned so far when the
caller receives it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Tuple

__all__ = [
    "popcount",
    "iter_bits",
    "bits_to_list",
    "bits_from_ids",
    "RangeFilterMasks",
]

# ----------------------------------------------------------------------
# Bit-vector primitives
# ----------------------------------------------------------------------
def popcount(bits: int) -> int:
    """Number of set bits (|S| of the encoded set)."""
    return bits.bit_count()


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set-bit positions of ``bits`` in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low

#: bit offsets set in each byte value — decode lookup table.
_BYTE_BITS = tuple(
    tuple(i for i in range(8) if byte >> i & 1) for byte in range(256)
)


def bits_to_list(bits: int) -> List[int]:
    """The set-bit positions of ``bits`` as an ascending list.

    Adaptive: very sparse vectors decode with the isolate-lowest-bit
    trick (O(k) big-int ops); denser ones serialize once with
    ``to_bytes`` and scan bytes through a lookup table, which avoids
    the O(k·width) cost of repeatedly reallocating a wide int.
    """
    out: List[int] = []
    if not bits:
        return out
    append = out.append
    if popcount(bits) <= 16:
        while bits:
            low = bits & -bits
            append(low.bit_length() - 1)
            bits ^= low
        return out
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    table = _BYTE_BITS
    for index, byte in enumerate(data):
        if byte:
            base = index << 3
            for offset in table[byte]:
                append(base + offset)
    return out


def bits_from_ids(ids: Iterable[int]) -> int:
    """Encode an iterable of object ids as a bit-vector."""
    bits = 0
    for obj in ids:
        bits |= 1 << obj
    return bits


# ----------------------------------------------------------------------
# Class-hierarchy filter masks
# ----------------------------------------------------------------------
class RangeFilterMasks:
    """Filter masks answered from hierarchy-ordered id ranges.

    With objects numbered by DFS pre-order over the type hierarchy
    (:class:`repro.pta.numbering.HierarchyNumbering`), the subtype set
    of a class ``C`` occupies one contiguous id range ``[lo, hi)``, so
    its mask is ``(1 << hi) - (1 << lo)`` — built in O(1) with **zero**
    subtype tests.  Objects materialized mid-solve (context-sensitive
    heap clones, classes outside the numbering) intern above ``start``
    and are covered by a lazy watermark scatter over ids ``>= start``:
    the subtype test runs once per (overflow object, filter class)
    pair over the whole solve.

    The hot path (mask already complete) costs two dict probes and a
    length check.  The instance observes the solver's append-only
    ``object_classes`` list; it never copies it.  Build work is counted
    (``range_builds``, ``subtype_tests``) and reported by :meth:`stats`,
    which the solve's ``masks`` instant and ``trace summarize`` read.

    Pickles drop the mask/watermark caches (pure derived state) so
    process-pool round-trips ship a lean payload and rebuild lazily.
    """

    __slots__ = ("_ranges", "_object_classes", "_is_subtype", "_start",
                 "_masks", "_upto", "extensions", "subtype_tests",
                 "range_builds")

    def __init__(self, class_ranges: Mapping[str, Tuple[int, int]],
                 object_classes: List[str],
                 is_subtype: Callable[[str, str], bool],
                 start: int) -> None:
        self._ranges = class_ranges
        self._object_classes = object_classes
        self._is_subtype = is_subtype
        self._start = start
        self._masks: Dict[str, int] = {}
        self._upto: Dict[str, int] = {}
        self.extensions = 0
        self.subtype_tests = 0
        #: Masks answered from a range (the zero-subtype-test builds).
        self.range_builds = 0

    def mask_for(self, filter_class: str) -> int:
        """The (complete, as of now) subtype mask for ``filter_class``."""
        mask = self._masks.get(filter_class)
        upto = self._upto.get(filter_class)
        classes = self._object_classes
        n = len(classes)
        if upto == n:
            return mask
        if upto is None:
            lo_hi = self._ranges.get(filter_class)
            if lo_hi is None:
                # Class outside the numbering (or undeclared): no
                # numbered object can satisfy the filter, by the same
                # convention the scatter path uses.
                mask = 0
            else:
                lo, hi = lo_hi
                mask = (1 << hi) - (1 << lo)
            self.range_builds += 1
            upto = self._start
        if upto < n:
            is_subtype = self._is_subtype
            for obj in range(upto, n):
                if is_subtype(classes[obj], filter_class):
                    mask |= 1 << obj
            self.extensions += 1
            self.subtype_tests += n - upto
        self._masks[filter_class] = mask
        self._upto[filter_class] = n
        return mask

    def __len__(self) -> int:
        """Number of distinct filter classes with a materialized mask."""
        return len(self._masks)

    def __getstate__(self):
        return (self._ranges, self._object_classes, self._is_subtype,
                self._start)

    def __setstate__(self, state) -> None:
        ranges, object_classes, is_subtype, start = state
        self.__init__(ranges, object_classes, is_subtype, start)

    def stats(self) -> Dict[str, float]:
        """Mask-cache statistics (the solve's ``masks`` trace instant)."""
        return {
            "masks": len(self._masks),
            "mask_extensions": self.extensions,
            "mask_bits": sum(popcount(m) for m in self._masks.values()),
            "mask_subtype_tests": self.subtype_tests,
            "mask_range_builds": self.range_builds,
        }

"""Hierarchy-ordered object numbering for the points-to solver.

The solver interns abstract objects to integer ids.  Historically ids
were handed out in discovery order, so a class-hierarchy filter mask
(``mask(T)`` has bit ``i`` set ⇔ ``class_of(i) <: T``, see
:mod:`repro.pta.bitset`) is a sparse scatter that costs one subtype
test per (object, filter class) pair to build.  Toussi & Khademzadeh's
class-hierarchy bit-vector encoding (PAPERS.md, arXiv 1108.2683) shows
the better numbering: walk the single-inheritance :class:`TypeHierarchy
<repro.ir.types.TypeHierarchy>` in DFS **pre-order** and assign ids
class by class.  In a pre-order walk every class's subtree is a
contiguous block, so the (reflexive, transitive) subtypes of any class
``C`` occupy one contiguous id range ``[lo, hi)`` — and ``mask(C)``
becomes the *range mask* ``(1 << hi) - (1 << lo)``, built with zero
subtype tests (:class:`repro.pta.bitset.RangeFilterMasks`).

:class:`HierarchyNumbering` precomputes that assignment from a program
and a heap model before the solve starts:

* the unit being numbered is the heap model's **site key** — for the
  MAHJONG abstraction that is the representative of a merged-object-map
  equivalence class (:mod:`repro.core.merging`), which is safe to range
  because type-consistent classes are single-type by construction
  (Algorithm 1 partitions by type before merging anything);
* only the *context-insensitive* incarnation of each key (empty heap
  context) receives a pre-assigned slot.  Context-sensitive heap clones
  and anything else materialized mid-solve intern after the numbered
  block (ids ``>= count``) and are covered by the scatter fallback of
  :class:`~repro.pta.bitset.RangeFilterMasks`.

A slot is *reserved*, not materialized: the solver only marks a slot
live when the allocation is actually reached, so observable results
(object counts, iteration of live objects) never show unreached slots.
The numbering is always on; ``tests/test_numbering.py`` checks it
against the reference solver.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.program import Program
from repro.ir.types import OBJECT_CLASS_NAME
from repro.pta.heapmodel import HeapModel

__all__ = ["HierarchyNumbering"]


class HierarchyNumbering:
    """A pre-order id assignment for one (program, heap model) pair.

    Attributes:

    * ``slots`` — site key → reserved id, for every distinct key of the
      program's allocation sites;
    * ``slot_keys`` — the inverse, as a list indexed by slot id;
    * ``key_class`` / ``first_site`` — per key, the allocated class and
      the lowest allocation site carrying it (prefill provenance);
    * ``count`` — number of reserved slots (ids ``>= count`` belong to
      the mid-solve overflow space);
    * ``class_ranges`` — class name → ``(lo, hi)`` with the invariant
      that the reserved slots of all reflexive-transitive subtypes of
      the class are exactly ``range(lo, hi)``;
    * ``own_end`` — per slot id, the end of its class's *own* block:
      ``range(slot, own_end[slot])`` holds only keys of the slot's
      class, and the next class's keys start at ``own_end[slot]``.  The
      solver dispatches such a block as one bit-vector slice when the
      context selector ignores the receiver.

    Keys whose class is not declared in the hierarchy get no slot (they
    cannot be ranged) and fall through to the overflow space.
    """

    __slots__ = ("slots", "slot_keys", "key_class", "first_site", "count",
                 "class_ranges", "own_end")

    def __init__(self, slots: Dict[object, int], slot_keys: List[object],
                 key_class: Dict[object, str], first_site: Dict[object, int],
                 count: int, class_ranges: Dict[str, Tuple[int, int]],
                 own_end: List[int]) -> None:
        self.slots = slots
        self.slot_keys = slot_keys
        self.key_class = key_class
        self.first_site = first_site
        self.count = count
        self.class_ranges = class_ranges
        self.own_end = own_end

    @classmethod
    def build(cls, program: Program,
              heap_model: HeapModel) -> "HierarchyNumbering":
        """Number the distinct site keys of ``program`` under
        ``heap_model`` by hierarchy pre-order.

        Keys are collected in ascending allocation-site order (the
        first site to produce a key defines its class — sound for every
        shipped heap model: allocation-site keys are per-site,
        allocation-type keys embed the class, and MAHJONG equivalence
        classes are single-type), then laid out class by class along
        ``TypeHierarchy.subtypes(Object)``, whose DFS pre-order makes
        every subtree contiguous.
        """
        hierarchy = program.hierarchy
        key_class: Dict[object, str] = {}
        first_site: Dict[object, int] = {}
        per_class: Dict[str, List[object]] = {}
        for site, stmt in sorted(program.alloc_sites().items()):
            key = heap_model.site_key(site, stmt.class_name)
            if key in key_class:
                continue
            key_class[key] = stmt.class_name
            first_site[key] = site
            per_class.setdefault(stmt.class_name, []).append(key)

        order = hierarchy.subtypes(hierarchy.get(OBJECT_CLASS_NAME))
        slots: Dict[object, int] = {}
        slot_keys: List[object] = []
        own_end: List[int] = []
        lo: Dict[str, int] = {}
        subtree: Dict[str, int] = {}
        for klass in order:
            lo[klass.name] = len(slot_keys)
            own = per_class.get(klass.name, ())
            subtree[klass.name] = len(own)
            for key in own:
                slots[key] = len(slot_keys)
                slot_keys.append(key)
            own_end.extend([len(slot_keys)] * len(own))
        # Pre-order lists every parent before its descendants, so a
        # reverse sweep accumulates subtree slot totals bottom-up.
        for klass in reversed(order):
            if klass.superclass_name is not None:
                subtree[klass.superclass_name] += subtree[klass.name]
        class_ranges = {
            name: (start, start + subtree[name]) for name, start in lo.items()
        }
        return cls(slots, slot_keys, key_class, first_site,
                   len(slot_keys), class_ranges, own_end)

    def stats(self) -> Dict[str, int]:
        """Numbering-shape statistics (numbered slots, classes, ranges)."""
        nonempty = sum(1 for lo, hi in self.class_ranges.values() if hi > lo)
        return {
            "numbered_slots": self.count,
            "numbered_classes": nonempty,
            "ranged_classes": len(self.class_ranges),
        }

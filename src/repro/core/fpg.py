"""The field points-to graph (FPG) — Section 4.1 of the paper.

The FPG is MAHJONG's input: a directed, field-labeled graph over the
abstract heap objects discovered by the pre-analysis.  An edge
``(o_i, f, o_j)`` means ``o_i.f`` may point to ``o_j``.

Conventions, exactly as in the paper:

* nodes are allocation sites (the pre-analysis uses the allocation-site
  abstraction context-insensitively, so objects ↔ sites);
* a dummy node :data:`NULL_OBJECT` represents ``null``; every field a
  class declares that the pre-analysis found nothing stored into points
  to :data:`NULL_OBJECT` — this is what lets MAHJONG separate "container
  of X" from "container with never-assigned fields" (Table 1, row 6);
* ``(o_null, f, o_null)`` is implicit for every field (handled by the
  automata layer, which gives the null node no outgoing alphabet and a
  distinguished type).

Build one with :func:`build_fpg` from a context-insensitive
:class:`~repro.pta.results.PointsToResult`, or directly with
:class:`FieldPointsToGraph` for tests.
"""

from __future__ import annotations

from typing import (AbstractSet, Dict, FrozenSet, Iterable, Iterator,
                    Mapping, Set, Tuple)

from repro.ir.types import NULL_TYPE
from repro.pta.bitset import bits_to_list
from repro.pta.results import PointsToResult

__all__ = ["FieldPointsToGraph", "FPGIntegrityError", "build_fpg",
           "NULL_OBJECT", "NULL_TYPE_NAME"]


class FPGIntegrityError(ValueError):
    """The FPG is internally inconsistent (e.g. a dangling edge).

    Raised by :meth:`FieldPointsToGraph.check_integrity`, which the
    pipeline runs after FPG construction: a corrupted artifact must not
    reach the merge phase, where it would poison the heap abstraction —
    the pipeline instead falls back to the allocation-site heap.
    """

#: The dummy null object's node id (allocation sites start at 1).
NULL_OBJECT = 0

#: TYPEOF(o_null) — the "special type" of Section 4.1.
NULL_TYPE_NAME = NULL_TYPE.name


class FieldPointsToGraph:
    """A field points-to graph ``FPG = (N, E)`` plus the object-to-type
    map ``τ`` and the per-object alphabet ``FIELDSOF``."""

    def __init__(self) -> None:
        self._type_of: Dict[int, str] = {NULL_OBJECT: NULL_TYPE_NAME}
        # successors: object -> field -> frozenset of objects
        self._succ: Dict[int, Dict[str, Set[int]]] = {NULL_OBJECT: {}}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_object(self, obj: int, type_name: str) -> None:
        """Register node ``obj`` with type ``type_name``."""
        if obj == NULL_OBJECT:
            raise ValueError(f"node id {NULL_OBJECT} is reserved for null")
        existing = self._type_of.get(obj)
        if existing is not None and existing != type_name:
            raise ValueError(
                f"object {obj} already has type {existing!r}, not {type_name!r}"
            )
        self._type_of[obj] = type_name
        self._succ.setdefault(obj, {})

    def add_edge(self, source: int, field: str, target: int) -> None:
        """Add ``(source, field, target)``; both nodes must be registered
        (``target`` may be :data:`NULL_OBJECT`)."""
        if source not in self._type_of:
            raise KeyError(f"unknown source object {source}")
        if target not in self._type_of:
            raise KeyError(f"unknown target object {target}")
        self._succ[source].setdefault(field, set()).add(target)

    def add_null_field(self, source: int, field: str) -> None:
        """Record that ``source.field`` holds only ``null``."""
        self.add_edge(source, field, NULL_OBJECT)

    # ------------------------------------------------------------------
    # Queries (the automata layer's entire interface)
    # ------------------------------------------------------------------
    def objects(self) -> Iterator[int]:
        """All nodes except the null node."""
        return (o for o in self._type_of if o != NULL_OBJECT)

    def __contains__(self, obj: int) -> bool:
        return obj in self._type_of

    def __len__(self) -> int:
        """Number of heap objects (null excluded)."""
        return len(self._type_of) - 1

    def type_of(self, obj: int) -> str:
        """``TYPEOF(obj)`` — the special null type for the null node."""
        return self._type_of[obj]

    def fields_of(self, obj: int) -> Iterable[str]:
        """``FIELDSOF(obj)`` — fields with outgoing edges from ``obj``.

        The null node has none: reading any field of null "stays null",
        modeled in the automata layer via the error/sink convention.
        """
        return self._succ[obj].keys()

    def successors(self, obj: int) -> Mapping[str, AbstractSet[int]]:
        """``obj``'s outgoing edges as field -> target set, read-only:
        the graph's own table, handed out without a copy (the shared
        automata read a one-object DFA state's transitions from it).
        Empty for the null node."""
        return self._succ[obj]

    def points_to(self, obj: int, field: str) -> FrozenSet[int]:
        """``α[obj, field]`` — empty when the field has no edge."""
        targets = self._succ[obj].get(field)
        return frozenset(targets) if targets else frozenset()

    def reachable_from(self, root: int) -> Set[int]:
        """All objects reachable from ``root`` (root included)."""
        seen = {root}
        stack = [root]
        while stack:
            obj = stack.pop()
            for targets in self._succ[obj].values():
                for target in targets:
                    if target not in seen:
                        seen.add(target)
                        stack.append(target)
        return seen

    def edges(self) -> Iterator[Tuple[int, str, int]]:
        for source, by_field in self._succ.items():
            for field, targets in by_field.items():
                for target in targets:
                    yield source, field, target

    def edge_count(self) -> int:
        return sum(
            len(targets)
            for by_field in self._succ.values()
            for targets in by_field.values()
        )

    def check_integrity(self) -> None:
        """Verify internal consistency; raise :class:`FPGIntegrityError`.

        Checks that every edge endpoint is a registered node and that
        every registered node has a successor table.  Cost is one pass
        over the edges — negligible next to the solve that produced
        them — so the pipeline runs it unconditionally between FPG
        construction and merging.
        """
        type_of = self._type_of
        for source, by_field in self._succ.items():
            if source not in type_of:
                raise FPGIntegrityError(
                    f"edge source {source} is not a registered object"
                )
            for field, targets in by_field.items():
                for target in targets:
                    if target not in type_of:
                        raise FPGIntegrityError(
                            f"dangling FPG edge {source}.{field} -> {target}: "
                            f"target is not a registered object"
                        )
        for obj in type_of:
            if obj not in self._succ:
                raise FPGIntegrityError(
                    f"object {obj} has no successor table"
                )

    def stats(self) -> Dict[str, int]:
        types = {t for o, t in self._type_of.items() if o != NULL_OBJECT}
        fields = {f for by_field in self._succ.values() for f in by_field}
        return {
            "objects": len(self),
            "types": len(types),
            "fields": len(fields),
            "edges": self.edge_count(),
        }


def build_fpg(pre_result: PointsToResult) -> FieldPointsToGraph:
    """Build the FPG from a context-insensitive, allocation-site-based
    pre-analysis result (the paper's setting).

    Raises ``ValueError`` when the result was computed with contexts or a
    non-allocation-site heap model, because then objects would not map
    one-to-one onto allocation sites.
    """
    if pre_result.heap_model_name != "alloc-site":
        raise ValueError(
            "the pre-analysis must use the allocation-site abstraction, "
            f"got {pre_result.heap_model_name!r}"
        )
    if pre_result.selector_name != "ci":
        raise ValueError(
            "the pre-analysis must be context-insensitive, "
            f"got {pre_result.selector_name!r}"
        )
    fpg = FieldPointsToGraph()
    type_of = fpg._type_of
    succ = fpg._succ
    # Object id -> allocation site (1:1 under ci + alloc-site).
    site_of: Dict[int, int] = {}
    class_of: Dict[int, str] = {}
    for obj in pre_result.objects():
        site = pre_result.object_site_key(obj)
        assert isinstance(site, int) and site != NULL_OBJECT
        site_of[obj] = site
        type_of[site] = class_of[site] = pre_result.object_class(obj)
        succ[site] = {}

    # One bit-vector read per field node; each (object, field) has one.
    for base_obj, field, bits in pre_result.field_bits():
        succ[site_of[base_obj]][field] = {
            site_of[p] for p in bits_to_list(bits)}

    # Null fields: every *declared* field (inherited included) of every
    # object that the pre-analysis found nothing stored into.
    program = pre_result.program
    hierarchy = program.hierarchy
    declared: Dict[str, Tuple[str, ...]] = {}
    for site, class_name in class_of.items():
        fields = declared.get(class_name)
        if fields is None:
            fields = declared[class_name] = (
                tuple(program.fields_of_class(class_name))
                if class_name in hierarchy else ())
        by_field = succ[site]
        for field in fields:
            if field not in by_field:
                by_field[field] = {NULL_OBJECT}
    return fpg

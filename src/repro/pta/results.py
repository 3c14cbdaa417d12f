"""Query interface over a finished points-to solve.

:class:`PointsToResult` snapshots the solver's interned state and exposes
the views the rest of the system needs:

* variable points-to sets (per-context or merged), for tests and clients;
* field points-to facts, consumed by the FPG builder
  (:mod:`repro.core.fpg`);
* the (context-projected) call graph, virtual-call-site target sets, and
  cast records, consumed by the type-dependent clients;
* summary statistics for the benchmark harness.

The solver stores points-to sets as bit-vector ints (see
:mod:`repro.pta.bitset`); accessors read them through the solver's
``node_pts_*`` methods.  Unions over many nodes are taken in the
bit-vector domain (``|`` on ints) and decoded once at the end.  Some
accessors hand the bit-vectors themselves to the consumers that only
test them against class masks or read their classes or sites
(:meth:`PointsToResult.cast_bits`, :meth:`PointsToResult.exception_bits`,
:meth:`PointsToResult.field_bits`); :meth:`PointsToResult.classes_of_bits`
reads the classes of a bit-vector one hierarchy-ordered class block at
a time.
Variable, exception and context queries read per-method indexes, each
built on first use, so a query costs its matching entries rather than a
scan of the node table.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.ir.program import Program
from repro.pta.bitset import bits_to_list
from repro.pta.context import Context
from repro.pta.solver import ObjectDescriptor, Solver

__all__ = ["PointsToResult"]

#: one index entry: the ``(ctx, node)`` pairs of a method or variable
_Nodes = List[Tuple[Context, int]]


class PointsToResult:
    """Immutable (by convention) view over a solved analysis."""

    def __init__(self, solver: Solver) -> None:
        self._solver = solver
        self.program: Program = solver.program
        self.selector_name: str = solver.selector.name
        self.heap_model_name: str = solver.heap_model.name
        self.solve_seconds: float = solver.solve_seconds
        self.iterations: int = solver.iterations
        # Query indexes, each built in one pass over the solver's
        # variable or exception node records or its frames on first
        # use.  Node indexes hold raw node ids: bits are read at query
        # time, through ``find()``.
        self._exc_index: Optional[Dict[str, _Nodes]] = None
        self._var_index: Optional[Dict[Tuple[str, str], _Nodes]] = None
        self._ctx_index: Optional[Dict[str, List[Context]]] = None

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------
    @property
    def object_count(self) -> int:
        """Number of abstract objects (with heap contexts) created.

        Counts *materialized* objects only: the hierarchy-ordered
        numbering reserves an id slot per potential object up front,
        and slots whose allocation was never reached do not exist
        observationally.
        """
        return len(self._solver._object_ids)

    def object_class(self, obj: int) -> str:
        return self._solver._object_class[obj]

    def object_sites(self, obj: int) -> AbstractSet[int]:
        """Concrete allocation sites abstracted by object ``obj`` (empty
        for a numbered slot whose allocation was never reached)."""
        sites = self._solver._object_alloc_sites[obj]
        return frozenset() if sites is None else sites

    def object_site_key(self, obj: int) -> object:
        return self._solver._object_site_key[obj]

    def object_heap_context(self, obj: int) -> Context:
        return self._solver._object_heap_ctx[obj]

    def describe_object(self, obj: int) -> ObjectDescriptor:
        s = self._solver
        return ObjectDescriptor(
            s._object_site_key[obj], s._object_heap_ctx[obj], s._object_class[obj]
        )

    def objects(self) -> Iterator[int]:
        """Materialized object ids, ascending (not necessarily dense —
        hierarchy-ordered numbering leaves unreached slots as gaps)."""
        return iter(sorted(self._solver._live_objects))

    # ------------------------------------------------------------------
    # Variable points-to
    # ------------------------------------------------------------------
    def var_points_to(self, method_qualified_name: str, var: str,
                      context: Optional[Context] = None) -> Set[ObjectDescriptor]:
        """Points-to set of ``var`` in the named method.

        With ``context=None`` the union over all contexts is returned.
        """
        objs = self.var_points_to_ids(method_qualified_name, var, context)
        return {self.describe_object(o) for o in objs}

    def var_points_to_ids(self, method_qualified_name: str, var: str,
                          context: Optional[Context] = None) -> Set[int]:
        """Like :meth:`var_points_to` but returns interned object ids."""
        if self._var_index is None:
            index: Dict[Tuple[str, str], _Nodes] = {}
            for node, ctx, method, name in self._solver.variable_nodes():
                index.setdefault((method.qualified_name, name), []).append(
                    (ctx, node))
            self._var_index = index
        return set(bits_to_list(self._union(
            self._var_index.get((method_qualified_name, var), ()), context)))

    def exception_points_to(self, method_qualified_name: str,
                            context: Optional[Context] = None) -> Set[int]:
        """Objects reaching the method's exceptional exit (its own throws
        plus everything propagating out of its callees), as interned
        object ids; union over contexts unless one is given.  Empty for
        a method that cannot throw: it has no exit."""
        return set(bits_to_list(self._union(
            self._exits().get(method_qualified_name, ()), context)))

    def exception_bits(self) -> Iterator[Tuple[str, int]]:
        """Yield ``(method qualified name, bits)`` for every method with
        an exceptional exit (one that may throw and was reached): the
        objects reaching the exit, unioned over its contexts, as one
        bit-vector."""
        for qname, entries in self._exits().items():
            yield qname, self._union(entries, None)

    def _exits(self) -> Dict[str, _Nodes]:
        """The exception index: method qualified name -> its ``(ctx,
        node)`` exceptional exits, one per context it was analyzed
        under."""
        if self._exc_index is None:
            index: Dict[str, _Nodes] = {}
            for node, ctx, method in self._solver.exception_nodes():
                index.setdefault(method.qualified_name, []).append((ctx, node))
            self._exc_index = index
        return self._exc_index

    def _union(self, entries: Iterable[Tuple[Context, int]],
               context: Optional[Context]) -> int:
        """Union of the ``(ctx, node)`` entries' points-to sets as one
        bit-vector, only those under ``context`` when one is given."""
        node_pts_bits = self._solver.node_pts_bits
        bits = 0
        for ctx, node in entries:
            if context is None or ctx == context:
                bits |= node_pts_bits(node)
        return bits

    def contexts_of_method(self, method_qualified_name: str) -> Set[Context]:
        """The contexts the named method was analyzed under: one per
        frame the solve reserved for it."""
        if self._ctx_index is None:
            index: Dict[str, List[Context]] = {}
            for frame in self._solver._frames.values():
                index.setdefault(frame.method.qualified_name, []).append(
                    frame.ctx)
            self._ctx_index = index
        return set(self._ctx_index.get(method_qualified_name, ()))

    def total_context_count(self) -> int:
        """Total (method, context) pairs analyzed — the cost driver that
        MAHJONG cuts for object-sensitive analyses."""
        return len(self._solver._frames)

    # ------------------------------------------------------------------
    # Field points-to (FPG input)
    # ------------------------------------------------------------------
    def field_bits(self) -> Iterator[Tuple[int, str, int]]:
        """Yield ``(base_obj, field, bits)`` for every instance field node
        that points to something: the pointees as one bit-vector, read
        once per node.  The FPG builder consumes this form directly, and
        :meth:`field_points_to_grouped` decodes it."""
        s = self._solver
        node_pts_bits = s.node_pts_bits
        # the solver interns field (tag 1) and static-field (tag 2)
        # nodes by key; variable nodes live in frames
        for key, node in s._node_ids.items():
            if key[0] == 1:
                bits = node_pts_bits(node)
                if bits:
                    yield key[1], key[2], bits

    def field_points_to_grouped(self) -> Iterator[Tuple[int, str, List[int]]]:
        """Yield ``(base_obj, field, pointee ids)`` one *field node* at a
        time: :meth:`field_bits` with each bit-vector decoded."""
        for base_obj, field, bits in self.field_bits():
            yield base_obj, field, bits_to_list(bits)

    def field_points_to(self) -> Iterator[Tuple[int, str, int]]:
        """Yield ``(base_obj, field, pointee_obj)`` facts."""
        for base_obj, field, pointees in self.field_points_to_grouped():
            for pointee in pointees:
                yield base_obj, field, pointee

    def fields_written(self, obj: int) -> Set[str]:
        """Field names for which ``obj`` has a field node."""
        s = self._solver
        result: Set[str] = set()
        for key in s._node_ids:
            if key[0] == 1 and key[1] == obj:
                result.add(key[2])
        return result

    # ------------------------------------------------------------------
    # Call graph & clients
    # ------------------------------------------------------------------
    def reachable_methods(self) -> Set[str]:
        return set(self._solver._reachable_methods)

    def call_graph_edges(self) -> Set[Tuple[int, str]]:
        """Context-insensitively projected edges
        ``(call_site, callee_qualified_name)`` — the paper's
        "#call graph edges" metric."""
        return set(self._solver._cg_edges_proj)

    def context_sensitive_edge_count(self) -> int:
        return len(self._solver._cg_edges_ctx)

    def call_site_targets(self) -> Dict[int, Set[str]]:
        """Virtual-dispatch target sets per call site (static calls
        excluded — they are trivially mono)."""
        virtual = self._solver._virtual_sites_seen
        result: Dict[int, Set[str]] = {site: set() for site in virtual}
        for site, callee in self._solver._cg_edges_proj:
            if site in virtual:
                result[site].add(callee)
        return result

    def static_call_sites(self) -> Set[int]:
        return set(self._solver._static_sites_seen)

    def cast_bits(self) -> Iterator[Tuple[int, str, int]]:
        """Yield ``(cast_site, target_class, bits)`` for every reachable
        cast, sorted by site then class: the objects flowing into the
        cast source as one bit-vector, unioned over the contexts the
        site was reached under."""
        s = self._solver
        merged: Dict[Tuple[int, str], int] = {}
        for cast_site, class_name, src_node in s._cast_records:
            key = (cast_site, class_name)
            merged[key] = merged.get(key, 0) | s.node_pts_bits(src_node)
        for (cast_site, class_name), bits in sorted(merged.items()):
            yield cast_site, class_name, bits

    def cast_records(self) -> Iterator[Tuple[int, str, Set[int]]]:
        """Yield ``(cast_site, target_class, incoming objects)`` for every
        reachable cast: :meth:`cast_bits` with each bit-vector decoded
        to object ids."""
        for cast_site, class_name, bits in self.cast_bits():
            yield cast_site, class_name, set(bits_to_list(bits))

    def subtype_mask(self, class_name: str) -> int:
        """The bit-vector of every object whose class is a subtype of
        ``class_name``: the solver's cast-filter mask, one range over
        the hierarchy-ordered ids plus the objects interned above them
        (heap-context clones, classes outside the numbering)."""
        return self._solver._filter_masks.mask_for(class_name)

    def classes_of_bits(self, bits: int) -> Set[str]:
        """The classes of the objects in ``bits``, read one class block at
        a time: each class's own hierarchy-ordered ids are one
        contiguous block (``HierarchyNumbering.own_end``), so a block
        costs one lookup however many of its objects are set.  Objects
        interned above the numbered block (heap-context clones, classes
        outside the numbering) are looked up one by one."""
        s = self._solver
        count = s._numbering.count
        own_end = s._numbering.own_end
        object_class = s._object_class
        classes: Set[str] = set()
        while bits:
            obj = (bits & -bits).bit_length() - 1
            if obj >= count:
                classes.update(map(object_class.__getitem__,
                                   bits_to_list(bits)))
                break
            classes.add(object_class[obj])
            bits &= -(1 << own_end[obj])
        return classes

    def is_subtype(self, sub_class: str, sup_class: str) -> bool:
        return self._solver._is_subtype_name(sub_class, sup_class)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        s = self._solver
        return {
            "selector": self.selector_name,
            "heap_model": self.heap_model_name,
            "solve_seconds": round(self.solve_seconds, 4),
            "iterations": self.iterations,
            "abstract_objects": self.object_count,
            "nodes": len(s._pts),
            "reachable_methods": len(s._reachable_methods),
            "method_contexts": self.total_context_count(),
            "call_graph_edges": len(s._cg_edges_proj),
            "cs_call_graph_edges": len(s._cg_edges_ctx),
            "pts_facts": sum(s.node_pts_count(n) for n in range(len(s._pts))),
            **{f"count_{k}": v for k, v in s.counters.items()},
        }

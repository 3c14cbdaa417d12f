"""Reference points-to solver: the oracle the production solver is
checked against (``tests/test_reference_solver.py``).

A naive chaotic-iteration fixpoint over the constraint rules of
``docs/algorithms.md``: every round re-applies every rule to every
reachable (context, method) pair and every pointer-flow edge, until a
round changes nothing.  There is no worklist, no difference
propagation, no cycle collapsing, no object numbering and no bit-vector;
points-to sets are plain Python sets of semantic objects
``(site_key, heap_context)``.

It shares no code with :mod:`repro.pta.solver`, :mod:`repro.pta.bitset`,
:mod:`repro.pta.scc`, :mod:`repro.pta.numbering` or
:mod:`repro.core.disjoint_sets`.  It reuses only the abstraction spec:
the :class:`~repro.pta.context.ContextSelector` (how contexts are
chosen), the :class:`~repro.pta.heapmodel.HeapModel` (how allocation
sites become objects) and :meth:`Program.dispatch` (virtual method
lookup).  So a fact the production solver reports but this one does
not is a spurious fact — the class of bug an execution-based oracle
such as :mod:`repro.interp` cannot see.

Node names: ``("var", ctx, method, var)``, ``("field", obj, field)``,
``("static", class, field)`` and ``("exc", ctx, method)``, with methods
named by their qualified name.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.ir.program import Method, Program
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
from repro.pta.context import (
    EMPTY_CONTEXT,
    ContextSelector,
    ReceiverInfo,
    wants_type_elements,
)
from repro.pta.heapmodel import AllocationSiteAbstraction, HeapModel

__all__ = ["ReferenceSolver", "reference_solve"]

#: An abstract object: ``(site_key, heap_context)``.
Obj = Tuple[object, tuple]
Node = Tuple[object, ...]


class ReferenceSolver:
    """Solve ``program`` under ``selector`` and ``heap_model``; the
    public attributes are the fixpoint once :meth:`solve` returns."""

    def __init__(self, program: Program, selector: ContextSelector,
                 heap_model: Optional[HeapModel] = None) -> None:
        self.program = program
        self.selector = selector
        self.heap_model = heap_model or AllocationSiteAbstraction()
        self._type_elements = wants_type_elements(selector)
        self._methods: Dict[str, Method] = {
            m.qualified_name: m for m in program.all_methods()}
        #: reachable ``(context, qualified name)`` pairs
        self.reachable: Set[Tuple[tuple, str]] = set()
        self.pts: Dict[Node, Set[Obj]] = {}
        #: pointer-flow edges ``(source, target, filter class or None)``
        self.edges: Set[Tuple[Node, Node, Optional[str]]] = set()
        self.obj_class: Dict[Obj, str] = {}
        self._obj_element: Dict[Obj, object] = {}
        #: ``(caller ctx, call site, callee ctx, callee)`` call edges
        self.call_edges: Set[Tuple[tuple, int, tuple, str]] = set()
        self.virtual_sites: Set[int] = set()
        self.static_sites: Set[int] = set()
        #: ``(cast site, target class, source node)`` per reachable cast
        self.casts: Set[Tuple[int, str, Node]] = set()

    # -- the fixpoint ---------------------------------------------------
    def solve(self) -> "ReferenceSolver":
        self.reachable.add((EMPTY_CONTEXT, self.program.entry.qualified_name))
        while True:
            before = self._size()
            for ctx, name in list(self.reachable):
                method = self._methods[name]
                for stmt in method.statements:
                    self._apply(ctx, method, stmt)
            for source, target, filter_class in list(self.edges):
                objs = self.pts.get(source, ())
                if filter_class is not None:
                    objs = {o for o in objs if self.is_subtype(
                        self.obj_class[o], filter_class)}
                if objs:
                    self.pts.setdefault(target, set()).update(objs)
            if self._size() == before:
                return self

    def _size(self) -> Tuple[int, ...]:
        """Every relation only grows, so an unchanged size vector means
        an unchanged state."""
        return (len(self.reachable), len(self.edges),
                sum(map(len, self.pts.values())), len(self.call_edges),
                len(self.virtual_sites), len(self.static_sites),
                len(self.casts))

    # -- rules ----------------------------------------------------------
    def _apply(self, ctx: tuple, method: Method, stmt) -> None:
        name = method.qualified_name

        def var(v: str) -> Node:
            return ("var", ctx, name, v)

        if isinstance(stmt, New):
            self._add(var(stmt.target), self._object(ctx, stmt))
        elif isinstance(stmt, Copy):
            self.edges.add((var(stmt.source), var(stmt.target), None))
        elif isinstance(stmt, Cast):
            self.edges.add((var(stmt.source), var(stmt.target),
                            stmt.class_name))
            self.casts.add((stmt.cast_site, stmt.class_name,
                            var(stmt.source)))
        elif isinstance(stmt, Load):
            for obj in list(self.pts.get(var(stmt.base), ())):
                self.edges.add((("field", obj, stmt.field_name),
                                var(stmt.target), None))
        elif isinstance(stmt, Store):
            for obj in list(self.pts.get(var(stmt.base), ())):
                self.edges.add((var(stmt.source),
                                ("field", obj, stmt.field_name), None))
        elif isinstance(stmt, StaticLoad):
            self.edges.add((("static", stmt.class_name, stmt.field_name),
                            var(stmt.target), None))
        elif isinstance(stmt, StaticStore):
            self.edges.add((var(stmt.source),
                            ("static", stmt.class_name, stmt.field_name),
                            None))
        elif isinstance(stmt, Throw):
            self.edges.add((var(stmt.source), ("exc", ctx, name), None))
        elif isinstance(stmt, Catch):
            self.edges.add((("exc", ctx, name), var(stmt.target),
                            stmt.class_name))
        elif isinstance(stmt, StaticInvoke):
            self.static_sites.add(stmt.call_site)
            callee = self.program.static_method(stmt.class_name,
                                                stmt.method_name)
            if callee is not None and len(callee.params) == len(stmt.args):
                callee_ctx = self.selector.select_static(
                    ctx, stmt.call_site, callee.qualified_name)
                self._call(ctx, method, stmt, callee_ctx, callee)
        elif isinstance(stmt, Invoke):
            self.virtual_sites.add(stmt.call_site)
            for obj in list(self.pts.get(var(stmt.base), ())):
                callee = self.program.dispatch(self.obj_class[obj],
                                               stmt.method_name)
                if callee is None or len(callee.params) != len(stmt.args):
                    continue
                receiver = ReceiverInfo(obj, obj[1], self._obj_element[obj])
                callee_ctx = self.selector.select_virtual(
                    ctx, stmt.call_site, receiver, callee.qualified_name)
                self._add(("var", callee_ctx, callee.qualified_name, "this"),
                          obj)
                self._call(ctx, method, stmt, callee_ctx, callee)

    def _call(self, ctx: tuple, caller: Method, stmt, callee_ctx: tuple,
              callee: Method) -> None:
        """Link one resolved call: arguments to parameters, returns to
        the call's target, and the callee's exceptional exit to the
        caller's."""
        name, callee_name = caller.qualified_name, callee.qualified_name
        self.call_edges.add((ctx, stmt.call_site, callee_ctx, callee_name))
        self.reachable.add((callee_ctx, callee_name))
        for arg, param in zip(stmt.args, callee.params):
            self.edges.add((("var", ctx, name, arg),
                            ("var", callee_ctx, callee_name, param), None))
        if stmt.target is not None:
            for ret in callee.statements:
                if isinstance(ret, Return):
                    self.edges.add((
                        ("var", callee_ctx, callee_name, ret.source),
                        ("var", ctx, name, stmt.target), None))
        self.edges.add((("exc", callee_ctx, callee_name),
                        ("exc", ctx, name), None))

    def _object(self, ctx: tuple, stmt: New) -> Obj:
        """The abstract object an allocation creates in ``ctx``: merged
        objects live in the empty heap context."""
        model = self.heap_model
        key = model.site_key(stmt.site, stmt.class_name)
        if model.is_merged(stmt.site, stmt.class_name):
            heap_ctx = EMPTY_CONTEXT
        else:
            heap_ctx = self.selector.select_heap(ctx, stmt.site)
        obj = (key, heap_ctx)
        if obj not in self.obj_class:
            self.obj_class[obj] = stmt.class_name
            self._obj_element[obj] = (
                model.containing_class(stmt.site, stmt.class_name,
                                       self.program)
                if self._type_elements else key)
        return obj

    def _add(self, node: Node, obj: Obj) -> None:
        self.pts.setdefault(node, set()).add(obj)

    def is_subtype(self, sub: str, sup: str) -> bool:
        """``sub <: sup`` by walking the superclass chain; an undeclared
        class is a subtype of nothing."""
        hierarchy = self.program.hierarchy
        if sub not in hierarchy or sup not in hierarchy:
            return False
        name: Optional[str] = sub
        while name is not None:
            if name == sup:
                return True
            name = hierarchy.get(name).superclass_name
        return False


def reference_solve(program: Program, selector: ContextSelector,
                    heap_model: Optional[HeapModel] = None) -> ReferenceSolver:
    """Build a :class:`ReferenceSolver` and run it to fixpoint."""
    return ReferenceSolver(program, selector, heap_model).solve()

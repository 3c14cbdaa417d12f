"""Program, class, field, and method containers of the mini-Java IR.

A :class:`Program` is the unit every analysis consumes.  It owns:

* a :class:`~repro.ir.types.TypeHierarchy`;
* one :class:`ClassDecl` per class (fields + methods, with inherited
  members resolved lazily through the hierarchy);
* a distinguished entry method ``main`` (a static method of the synthetic
  class ``<Main>``).

Method dispatch (:meth:`Program.dispatch`) walks the superclass chain,
exactly like JVM virtual dispatch restricted to names (the mini language
has no overloading, so a method is identified by its bare name).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.ir.statements import Invoke, New, Statement, StaticInvoke, Throw
from repro.ir.types import ClassType, TypeHierarchy

__all__ = ["FieldDecl", "Method", "ClassDecl", "Program", "MAIN_CLASS_NAME"]

MAIN_CLASS_NAME = "<Main>"


@dataclass(frozen=True)
class FieldDecl:
    """An instance or static field declaration.

    ``declared_type`` is the field's declared class type name.  The
    points-to analysis itself is untyped on fields (any object can flow),
    but declared types feed ``FIELDSOF`` in the NFA builder and make
    generated programs printable as typed source.
    """

    name: str
    declared_type: str
    is_static: bool = False


class Method:
    """A method: parameters, statements, and identity.

    ``params`` excludes the implicit receiver; instance methods always
    have the receiver variable ``this`` available.  ``qualified_name`` is
    ``Class.method`` and globally unique (no overloading); it is built
    once, here, because the solver reads it on every call edge.
    """

    __slots__ = (
        "class_name",
        "name",
        "params",
        "statements",
        "is_static",
        "qualified_name",
    )

    def __init__(
        self,
        class_name: str,
        name: str,
        params: Tuple[str, ...],
        statements: List[Statement],
        is_static: bool = False,
    ) -> None:
        self.class_name = class_name
        self.name = name
        self.params = params
        self.statements = statements
        self.is_static = is_static
        self.qualified_name = f"{class_name}.{name}"

    def __repr__(self) -> str:
        return f"Method({self.qualified_name})"

    def local_variables(self) -> List[str]:
        """All variable names occurring in this method, receiver included."""
        names: List[str] = []
        seen = set()

        def add(name: Optional[str]) -> None:
            if name is not None and name not in seen:
                seen.add(name)
                names.append(name)

        if not self.is_static:
            add("this")
        for param in self.params:
            add(param)
        for stmt in self.statements:
            for attr in ("target", "source", "base"):
                add(getattr(stmt, attr, None))
            for arg in getattr(stmt, "args", ()):
                add(arg)
        return names


class ClassDecl:
    """A class declaration: its type plus declared fields and methods."""

    __slots__ = ("type", "fields", "methods")

    def __init__(self, cls_type: ClassType) -> None:
        self.type = cls_type
        self.fields: Dict[str, FieldDecl] = {}
        self.methods: Dict[str, Method] = {}

    @property
    def name(self) -> str:
        return self.type.name

    def add_field(self, decl: FieldDecl) -> None:
        if decl.name in self.fields:
            raise ValueError(f"duplicate field {decl.name!r} in class {self.name!r}")
        self.fields[decl.name] = decl

    def add_method(self, method: Method) -> None:
        if method.name in self.methods:
            raise ValueError(f"duplicate method {method.name!r} in class {self.name!r}")
        self.methods[method.name] = method

    def __repr__(self) -> str:
        return f"ClassDecl({self.name!r})"


class Program:
    """A complete analyzable program.

    Construct through :class:`repro.ir.builder.ProgramBuilder` or the
    frontend parser; direct construction is possible but skips the
    well-formedness checks in :mod:`repro.ir.validate`.
    """

    def __init__(self, hierarchy: TypeHierarchy) -> None:
        self.hierarchy = hierarchy
        self.classes: Dict[str, ClassDecl] = {}
        self.entry: Optional[Method] = None
        # Populated by finalize(): fast lookup tables.
        self._alloc_sites: Dict[int, New] = {}
        self._alloc_site_methods: Dict[int, Method] = {}
        self._call_sites: Dict[int, Statement] = {}
        self._dispatch_cache: Dict[Tuple[str, str], Optional[Method]] = {}
        # Methods with a ``throw`` statement, and the memo of
        # ``may_throw_methods`` (``None`` until first asked).
        self._throwing: List[Method] = []
        self._may_throw: Optional[FrozenSet[Method]] = None
        # The points-to solver's per-method slot tables
        # (``repro.pta.solver``), keyed by ``id(method)``: built when a
        # solve first reaches a method and shared by every later solve.
        self.frame_layouts: Dict[int, object] = {}

    def __getstate__(self) -> Dict[str, object]:
        # Ship programs to worker processes without the dispatch memo,
        # the may-throw set and the slot tables: all are derived state,
        # can be large after a solve, and each worker rebuilds the
        # entries it needs.
        state = self.__dict__.copy()
        state["_dispatch_cache"] = {}
        state["_may_throw"] = None
        state["frame_layouts"] = {}
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Construction helpers (used by the builder)
    # ------------------------------------------------------------------
    def add_class(self, decl: ClassDecl) -> None:
        if decl.name in self.classes:
            raise ValueError(f"duplicate class {decl.name!r}")
        self.classes[decl.name] = decl

    def set_entry(self, method: Method) -> None:
        self.entry = method

    def finalize(self) -> None:
        """Build lookup tables; call once after all classes are added."""
        self._alloc_sites.clear()
        self._alloc_site_methods.clear()
        self._call_sites.clear()
        self._throwing = []
        self._may_throw = None
        for method in self.all_methods():
            throws = False
            for stmt in method.statements:
                if isinstance(stmt, New):
                    if stmt.site in self._alloc_sites:
                        raise ValueError(f"duplicate allocation site id {stmt.site}")
                    self._alloc_sites[stmt.site] = stmt
                    self._alloc_site_methods[stmt.site] = method
                elif isinstance(stmt, (Invoke, StaticInvoke)):
                    if stmt.call_site in self._call_sites:
                        raise ValueError(f"duplicate call site id {stmt.call_site}")
                    self._call_sites[stmt.call_site] = stmt
                elif isinstance(stmt, Throw):
                    throws = True
            if throws:
                self._throwing.append(method)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def all_methods(self) -> Iterator[Method]:
        """All methods in the program, entry method included."""
        if self.entry is not None:
            yield self.entry
        for decl in self.classes.values():
            yield from decl.methods.values()

    def get_class(self, name: str) -> ClassDecl:
        return self.classes[name]

    def alloc_site(self, site: int) -> New:
        """The :class:`New` statement of allocation site ``site``."""
        return self._alloc_sites[site]

    def alloc_sites(self) -> Dict[int, New]:
        """All allocation sites (id → statement)."""
        return self._alloc_sites

    def method_of_site(self, site: int) -> Method:
        """The method containing allocation site ``site``."""
        return self._alloc_site_methods[site]

    def containing_class_of_site(self, site: int) -> str:
        """Class declaring the method of ``site`` (type-sensitivity's
        context element, per Smaragdakis et al.)."""
        return self._alloc_site_methods[site].class_name

    def call_site(self, call_site: int) -> Statement:
        return self._call_sites[call_site]

    def fields_of_class(self, class_name: str) -> Dict[str, FieldDecl]:
        """Declared + inherited instance fields of ``class_name``."""
        result: Dict[str, FieldDecl] = {}
        cls = self.hierarchy.get(class_name)
        for ancestor in reversed(self.hierarchy.superclass_chain(cls)):
            decl = self.classes.get(ancestor.name)
            if decl is not None:
                for fdecl in decl.fields.values():
                    if not fdecl.is_static:
                        result[fdecl.name] = fdecl
        return result

    def dispatch(self, receiver_class: str, method_name: str) -> Optional[Method]:
        """Resolve virtual dispatch of ``method_name`` on an object of
        dynamic type ``receiver_class``.

        Returns ``None`` when no class on the superclass chain declares
        the method (an ill-typed call that the analysis simply ignores,
        like Doop does for unresolved invocations).
        """
        key = (receiver_class, method_name)
        cached = self._dispatch_cache.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        result: Optional[Method] = None
        cls = self.hierarchy.get(receiver_class)
        for ancestor in self.hierarchy.superclass_chain(cls):
            decl = self.classes.get(ancestor.name)
            if decl is not None and method_name in decl.methods:
                candidate = decl.methods[method_name]
                if not candidate.is_static:
                    result = candidate
                    break
        self._dispatch_cache[key] = result
        return result

    def static_method(self, class_name: str, method_name: str) -> Optional[Method]:
        """Resolve a static call ``class_name.method_name``."""
        decl = self.classes.get(class_name)
        if decl is None:
            return None
        method = decl.methods.get(method_name)
        if method is not None and method.is_static:
            return method
        return None

    def may_throw_methods(self) -> FrozenSet[Method]:
        """Methods whose exceptional exit can ever hold an object.

        The least fixpoint of "has a ``throw``, or calls a method that
        may throw": a static call resolves through :meth:`static_method`
        and a virtual call through every instance method of its name and
        arity, a superset of what any points-to analysis dispatches to.
        Computed once and memoized; a program without ``throw`` answers
        from :meth:`finalize`'s walk alone.
        """
        if self._may_throw is not None:
            return self._may_throw
        may_throw = set(self._throwing)
        if may_throw:
            instance: Dict[Tuple[str, int], List[Method]] = {}
            for decl in self.classes.values():
                for method in decl.methods.values():
                    if not method.is_static:
                        instance.setdefault(
                            (method.name, len(method.params)), []).append(method)
            callers: Dict[Method, List[Method]] = {}
            for method in self.all_methods():
                for stmt in method.statements:
                    if isinstance(stmt, Invoke):
                        callees = instance.get(
                            (stmt.method_name, len(stmt.args)), ())
                    elif isinstance(stmt, StaticInvoke):
                        callee = self.static_method(stmt.class_name,
                                                    stmt.method_name)
                        callees = () if callee is None else (callee,)
                    else:
                        continue
                    for callee in callees:
                        callers.setdefault(callee, []).append(method)
            work = list(may_throw)
            while work:
                for caller in callers.get(work.pop(), ()):
                    if caller not in may_throw:
                        may_throw.add(caller)
                        work.append(caller)
        self._may_throw = frozenset(may_throw)
        return self._may_throw

    # ------------------------------------------------------------------
    # Statistics (used by benches and EXPERIMENTS reporting)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        n_methods = sum(1 for _ in self.all_methods())
        n_stmts = sum(len(m.statements) for m in self.all_methods())
        return {
            "classes": len(self.classes),
            "methods": n_methods,
            "statements": n_stmts,
            "alloc_sites": len(self._alloc_sites),
            "call_sites": len(self._call_sites),
        }

    def __repr__(self) -> str:
        return f"Program(classes={len(self.classes)}, sites={len(self._alloc_sites)})"


class _Missing:
    """Sentinel distinct from None for the dispatch cache."""


_MISSING = _Missing()

"""Semantic well-formedness checks for IR programs.

The points-to solver assumes a handful of invariants (declared classes,
resolvable field names, arity-consistent calls where statically knowable).
:func:`validate` checks them all and returns a list of human-readable
problems; :func:`ensure_valid` raises on the first batch.

The checks deliberately mirror what a Java compiler would guarantee about
bytecode, so that the solver never needs defensive branches.
"""

from __future__ import annotations

from typing import List

from repro.ir.program import Method, Program
from repro.ir.statements import (
    Cast,
    Catch,
    Invoke,
    Load,
    New,
    StaticInvoke,
    StaticLoad,
    StaticStore,
    Statement,
    Store,
)

__all__ = ["validate", "ensure_valid", "ValidationError"]

#: statements whose ``class_name`` must name a declared class
_NAMES_A_CLASS = (New, Catch, Cast, StaticLoad, StaticStore, StaticInvoke)


class ValidationError(ValueError):
    """Raised by :func:`ensure_valid` for ill-formed programs."""


def validate(program: Program) -> List[str]:
    """Return all well-formedness problems found (empty when valid)."""
    problems: List[str] = []
    hierarchy = program.hierarchy
    # Field and virtual-call names are only checkable per class at
    # runtime types; statically some class must declare the name (and,
    # for a method, with the call's arity).
    instance_fields = {
        name for decl in program.classes.values()
        for name, fdecl in decl.fields.items() if not fdecl.is_static
    }
    instance_methods = {
        (name, len(method.params)) for decl in program.classes.values()
        for name, method in decl.methods.items() if not method.is_static
    }

    def report(method: Method, stmt: Statement, problem: str) -> None:
        problems.append(f"{method.qualified_name}: {stmt}: {problem}")

    if program.entry is None:
        problems.append("program has no main method")

    for method in program.all_methods():
        for stmt in method.statements:
            if isinstance(stmt, _NAMES_A_CLASS) and stmt.class_name not in hierarchy:
                report(method, stmt, f"unknown class {stmt.class_name!r}")
            if isinstance(stmt, (Load, Store)):
                if stmt.field_name not in instance_fields:
                    report(method, stmt, f"field {stmt.field_name!r} never declared")
            elif isinstance(stmt, (StaticLoad, StaticStore)):
                if not _static_field_exists(program, stmt.class_name, stmt.field_name):
                    report(
                        method, stmt,
                        f"static field {stmt.class_name}.{stmt.field_name} not declared"
                    )
            elif isinstance(stmt, StaticInvoke):
                callee = program.static_method(stmt.class_name, stmt.method_name)
                if callee is None:
                    report(
                        method, stmt,
                        f"static method {stmt.class_name}.{stmt.method_name} "
                        f"not declared"
                    )
                elif len(callee.params) != len(stmt.args):
                    report(
                        method, stmt,
                        f"arity mismatch calling {callee.qualified_name} "
                        f"({len(stmt.args)} args, {len(callee.params)} params)"
                    )
            elif isinstance(stmt, Invoke):
                if (stmt.method_name, len(stmt.args)) not in instance_methods:
                    report(
                        method, stmt,
                        f"no class declares instance method "
                        f"{stmt.method_name!r} with {len(stmt.args)} params"
                    )
    return problems


def ensure_valid(program: Program) -> Program:
    """Raise :class:`ValidationError` if ``program`` is ill-formed."""
    problems = validate(program)
    if problems:
        preview = "\n  ".join(problems[:20])
        suffix = "" if len(problems) <= 20 else f"\n  ... and {len(problems) - 20} more"
        raise ValidationError(f"invalid program:\n  {preview}{suffix}")
    return program


def _static_field_exists(program: Program, class_name: str, field_name: str) -> bool:
    decl = program.classes.get(class_name)
    if decl is None:
        return False
    fdecl = decl.fields.get(field_name)
    return fdecl is not None and fdecl.is_static


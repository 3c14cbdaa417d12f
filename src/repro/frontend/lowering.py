"""Lowering: source or surface AST → IR program.

:func:`parse_program` reads a source with the statement scanner
(:mod:`repro.frontend.scanner`) and builds the IR straight from its
matches.  When the scanner cannot read the source, or building fails,
the whole source goes through the token parser and :func:`lower`
instead, so every lex, parse and lowering error keeps the message and
position the parser gives it.  Both paths build through one skeleton,
:func:`_build`, so they assign the same site ids.

Responsibilities beyond a 1:1 translation:

* topologically sort class declarations by inheritance, so source files
  may mention subclasses before their superclasses;
* assign globally unique allocation-, call- and cast-site ids (via
  :class:`~repro.ir.builder.ProgramBuilder`);
* report inheritance cycles and unknown superclasses with positions.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Sequence, TypeVar

from repro.frontend.ast import (
    AstCast,
    AstCatch,
    AstCopy,
    AstInvoke,
    AstLoad,
    AstMethod,
    AstNew,
    AstNull,
    AstProgram,
    AstReturn,
    AstStatement,
    AstStaticInvoke,
    AstStaticLoad,
    AstStaticStore,
    AstStore,
    AstThrow,
)
from repro.frontend.errors import ParseError
from repro.frontend.parser import parse_ast
from repro.frontend.scanner import Unscannable, scan_body, scan_declarations
from repro.ir.builder import MethodBuilder, ProgramBuilder
from repro.ir.program import Program
from repro.ir.types import OBJECT_CLASS_NAME
from repro.ir.validate import ensure_valid

__all__ = ["lower", "parse_program"]

#: a class declaration: ``AstClass`` or the scanner's ``ClassHeader``
ClassLike = TypeVar("ClassLike")


def lower(ast: AstProgram, validate: bool = True) -> Program:
    """Lower an AST into a finalized (optionally validated) IR program."""
    main = AstMethod("main", (), True, ast.main_statements, ast.main_position)
    program = _build(ast.classes, main, _lower_body)
    if validate:
        ensure_valid(program)
    return program


def parse_program(source: str, validate: bool = True) -> Program:
    """Parse mini-Java ``source`` straight to a validated IR program.

    The statement scanner reads well-formed sources; anything else goes
    through :func:`~repro.frontend.parser.parse_ast` and :func:`lower`,
    which raise the frontend's errors.
    """
    try:
        classes, main = scan_declarations(source)
        program = _build(classes, main, partial(scan_body, source))
    except (Unscannable, ValueError):
        program = lower(parse_ast(source), validate=False)
    if validate:
        ensure_valid(program)
    return program


def _build(classes: Sequence[ClassLike], main,
           fill: Callable[[MethodBuilder, object], None]) -> Program:
    """Build the program of ``classes`` and ``main``: declarations in
    inheritance order, then every method body through ``fill``."""
    builder = ProgramBuilder()
    ordered = _sorted_by_inheritance(classes)
    for cls in ordered:
        builder.add_class(cls.name, cls.superclass)
        for fdecl in cls.fields:
            builder.add_field(cls.name, fdecl.name, fdecl.declared_type,
                              fdecl.is_static)
    for cls in ordered:
        for mdecl in cls.methods:
            with builder.method(cls.name, mdecl.name, mdecl.params,
                                static=mdecl.is_static) as mb:
                fill(mb, mdecl)
    with builder.main() as mb:
        fill(mb, main)
    return builder.build()


def _sorted_by_inheritance(classes: Sequence[ClassLike]) -> List[ClassLike]:
    """Superclasses-first topological order; detects cycles.  A class is
    anything with ``name``, ``superclass`` and ``position``."""
    by_name: Dict[str, ClassLike] = {}
    for cls in classes:
        if cls.name in by_name:
            raise ParseError(f"duplicate class {cls.name!r}", cls.position)
        by_name[cls.name] = cls
    ordered: List[ClassLike] = []
    state: Dict[str, int] = {}  # 0 = visiting, 1 = done

    def visit(cls: ClassLike) -> None:
        status = state.get(cls.name)
        if status == 1:
            return
        if status == 0:
            raise ParseError(f"inheritance cycle through {cls.name!r}", cls.position)
        state[cls.name] = 0
        sup = cls.superclass
        if sup is not None and sup != OBJECT_CLASS_NAME:
            parent = by_name.get(sup)
            if parent is None:
                raise ParseError(
                    f"unknown superclass {sup!r} of {cls.name!r}", cls.position
                )
            visit(parent)
        state[cls.name] = 1
        ordered.append(cls)

    for cls in classes:
        visit(cls)
    return ordered


def _lower_body(mb: MethodBuilder, method: AstMethod) -> None:
    for stmt in method.statements:
        _lower_statement(mb, stmt)


def _lower_statement(mb: MethodBuilder, stmt: AstStatement) -> None:
    if isinstance(stmt, AstNew):
        mb.new(stmt.class_name, target=stmt.target)
    elif isinstance(stmt, AstCopy):
        mb.copy(stmt.target, stmt.source)
    elif isinstance(stmt, AstLoad):
        mb.load(stmt.base, stmt.field_name, target=stmt.target)
    elif isinstance(stmt, AstStore):
        mb.store(stmt.base, stmt.field_name, stmt.source)
    elif isinstance(stmt, AstStaticLoad):
        mb.static_load(stmt.class_name, stmt.field_name, target=stmt.target)
    elif isinstance(stmt, AstStaticStore):
        mb.static_store(stmt.class_name, stmt.field_name, stmt.source)
    elif isinstance(stmt, AstInvoke):
        mb.invoke(stmt.base, stmt.method_name, *stmt.args, target=stmt.target)
    elif isinstance(stmt, AstStaticInvoke):
        mb.static_invoke(stmt.class_name, stmt.method_name, *stmt.args,
                         target=stmt.target)
    elif isinstance(stmt, AstCast):
        mb.cast(stmt.class_name, stmt.source, target=stmt.target)
    elif isinstance(stmt, AstReturn):
        mb.ret(stmt.source)
    elif isinstance(stmt, AstNull):
        mb.assign_null(stmt.target)
    elif isinstance(stmt, AstThrow):
        mb.throw(stmt.source)
    elif isinstance(stmt, AstCatch):
        mb.catch(stmt.class_name, target=stmt.target)
    else:
        raise TypeError(f"unknown AST statement: {type(stmt).__name__}")

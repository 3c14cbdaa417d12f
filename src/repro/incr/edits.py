"""Deterministic single-method program edits.

The tests and the benchmark's edit loop need realistic "IDE
keystroke" edits: clone a program, change exactly one method's body,
keep everything else identical.  Edits are seeded
(:class:`random.Random`) so every run of a test or bench cell replays
the same sequence.

All functions return fresh :class:`~repro.ir.program.Program` values;
inputs are never mutated (same contract as :mod:`repro.transform`).
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.ir.program import ClassDecl, Method, Program
from repro.ir.statements import Copy, Invoke, New, StaticInvoke, Statement

__all__ = [
    "max_site_id",
    "replace_method_body",
    "perturb_method",
    "pick_editable_method",
]


def max_site_id(program: Program) -> int:
    """Largest allocation/call/cast site id in the program (0 when there
    are none) — fresh sites must intern above it to stay globally
    unique."""
    highest = 0
    for method in program.all_methods():
        for stmt in method.statements:
            site = getattr(stmt, "site", None)
            if site is None:
                site = getattr(stmt, "call_site", None)
            if site is None:
                site = getattr(stmt, "cast_site", None)
            if site is not None and site > highest:
                highest = site
    return highest


def _clone_with(program: Program, qualname: str,
                statements: Sequence[Statement]) -> Program:
    """Clone ``program`` with the named method's body replaced."""
    found = False

    def rebuild(method: Method) -> Method:
        nonlocal found
        if method.qualified_name == qualname:
            found = True
            return Method(method.class_name, method.name, method.params,
                          list(statements), method.is_static)
        return Method(method.class_name, method.name, method.params,
                      method.statements, method.is_static)

    clone = Program(program.hierarchy)
    for decl in program.classes.values():
        new_decl = ClassDecl(decl.type)
        for fdecl in decl.fields.values():
            new_decl.add_field(fdecl)
        for method in decl.methods.values():
            new_decl.add_method(rebuild(method))
        clone.add_class(new_decl)
    assert program.entry is not None
    clone.set_entry(rebuild(program.entry))
    clone.finalize()
    if not found:
        raise KeyError(f"no method {qualname!r} in program")
    return clone


def replace_method_body(program: Program, qualname: str,
                        statements: Sequence[Statement]) -> Program:
    """New program identical to ``program`` except the named method's
    statements."""
    return _clone_with(program, qualname, statements)


def _find_method(program: Program, qualname: str) -> Method:
    for method in program.all_methods():
        if method.qualified_name == qualname:
            return method
    raise KeyError(f"no method {qualname!r} in program")


def pick_editable_method(program: Program, seed: int = 0,
                         exclude_entry: bool = False) -> str:
    """Deterministically pick a method worth editing: prefers bodies
    with at least two statements (so drop/add edits stay meaningful)."""
    rng = random.Random(seed)
    candidates = sorted(
        m.qualified_name for m in program.all_methods()
        if len(m.statements) >= 2
        and not (exclude_entry and program.entry is not None
                 and m.qualified_name == program.entry.qualified_name)
    )
    if not candidates:
        candidates = sorted(m.qualified_name for m in program.all_methods())
    if not candidates:
        raise ValueError("program has no methods to edit")
    return rng.choice(candidates)


def perturb_method(program: Program, qualname: str, seed: int = 0) -> Program:
    """Apply one seeded body edit to the named method.

    Edit kinds (chosen by the seed):

    * ``add-alloc`` — append ``v = new C()`` with a fresh globally
      unique allocation site and a class drawn from the program;
    * ``add-copy`` — append ``x = y`` between two existing locals;
    * ``drop-stmt`` — delete one statement (never the last remaining
      call, so reachability does not collapse trivially).

    The result differs from the input in exactly one method body; site
    ids stay globally unique, so ``finalize()`` always succeeds.
    """
    rng = random.Random(seed)
    method = _find_method(program, qualname)
    statements: List[Statement] = list(method.statements)
    local_vars = method.local_variables()
    classes = sorted(program.classes)

    kinds = ["add-alloc"]
    if len(local_vars) >= 2:
        kinds.append("add-copy")
    droppable = [
        i for i, stmt in enumerate(statements)
        if not isinstance(stmt, (Invoke, StaticInvoke))
    ]
    if droppable and len(statements) >= 2:
        kinds.append("drop-stmt")
    kind = rng.choice(kinds)

    if kind == "add-alloc":
        target = (rng.choice(local_vars) if local_vars
                  else f"fresh{rng.randrange(1 << 16)}")
        class_name = rng.choice(classes) if classes else "Object"
        # Offset by the seed so distinct edits in a sequence cannot
        # collide with each other's fresh sites.
        site = max_site_id(program) + 1 + (seed % 1009)
        statements.append(New(target, class_name, site))
    elif kind == "add-copy":
        target, source = rng.sample(local_vars, 2)
        statements.append(Copy(target, source))
    else:  # drop-stmt
        statements.pop(rng.choice(droppable))

    return replace_method_body(program, qualname, statements)

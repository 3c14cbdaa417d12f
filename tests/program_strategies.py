"""Hypothesis strategy generating small well-formed IR programs.

Programs are built through :class:`~repro.ir.builder.ProgramBuilder`
so they are valid by construction: every referenced class/field/method
exists, every used variable was defined (points-to-wise a variable may
still be empty, which the solver must tolerate).

The generated shape: a small class pool with one level of inheritance,
a shared ``f`` field, one virtual method per class, a static helper,
and a straight-line ``main`` mixing allocations, copies, loads, stores,
casts, and calls.  The virtual methods and the helper may each throw
their parameter and catch (and return) one class's exceptions.

Objects also get heap contexts: each base class has a factory ``make``
that allocates, may keep the new object in ``this.f`` and fill its
field, and returns it, and a ``fill`` that allocates into its
argument's field (a container filled in the callee, which ``main``
then reads).  Subclasses inherit both, so one allocation site is
reached through receivers of several classes and sites, and under
object- and type-sensitive selectors its objects differ by heap
context.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import strategies as st

from repro.ir.builder import MethodBuilder, ProgramBuilder
from repro.ir.program import Program


@st.composite
def ir_programs(draw) -> Program:
    n_classes = draw(st.integers(2, 4))
    n_subclasses = draw(st.integers(0, 2))
    builder = ProgramBuilder()
    class_names: List[str] = []
    for i in range(n_classes):
        name = f"C{i}"
        builder.add_class(name)
        builder.add_field(name, "f", "Object")
        class_names.append(name)
    for i in range(n_subclasses):
        parent = class_names[i % n_classes]
        name = f"S{i}"
        builder.add_class(name, parent)
        class_names.append(name)
    def exceptional(mb: MethodBuilder, owner: str, thrown: str) -> None:
        """Optionally throw ``thrown`` and/or catch (and return) one
        class's objects from the method's exceptional exit."""
        if draw(st.booleans(), label=f"{owner}_throws"):
            mb.throw(thrown)
        if draw(st.booleans(), label=f"{owner}_catches"):
            cls = draw(st.sampled_from(class_names), label=f"{owner}_catch")
            mb.ret(mb.catch(cls))

    # one virtual method per class: returns either `this` or its field
    for name in class_names:
        returns_field = draw(st.booleans(), label=f"{name}_returns_field")
        with builder.method(name, "m", params=("p",)) as mb:
            if returns_field:
                mb.store("this", "f", "p")
                value = mb.load("this", "f")
                mb.ret(value)
            else:
                mb.ret("this")
            exceptional(mb, name, "p")
    # factories and container fillers on the base classes: allocations
    # inside callees, under the callee's context
    for name in class_names[:n_classes]:
        made = draw(st.sampled_from(class_names), label=f"{name}_makes")
        with builder.method(name, "make", params=("p",)) as mb:
            mb.new(made, target="r")
            if draw(st.booleans(), label=f"{name}_keeps"):
                mb.store("this", "f", "r")
            if draw(st.booleans(), label=f"{name}_fills"):
                mb.store("r", "f", "p")
            mb.ret("r")
        filled = draw(st.sampled_from(class_names), label=f"{name}_puts")
        with builder.method(name, "fill", params=("c",)) as mb:
            mb.new(filled, target="e")
            mb.store("c", "f", "e")
    # one static helper: identity
    builder.add_class("Util")
    with builder.method("Util", "id", params=("x",), static=True) as mb:
        mb.ret("x")
        exceptional(mb, "Util", "x")

    with builder.main() as mb:
        defined: List[str] = []
        statements = draw(st.integers(3, 14))
        for index in range(statements):
            choice = draw(
                st.integers(0, 7 if defined else 0), label=f"stmt_{index}"
            )
            if choice == 0 or not defined:
                cls = draw(st.sampled_from(class_names), label=f"new_{index}")
                defined.append(mb.new(cls, target=f"v{index}"))
            elif choice == 1:
                source = draw(st.sampled_from(defined), label=f"cp_{index}")
                mb.copy(f"v{index}", source)
                defined.append(f"v{index}")
            elif choice == 2:
                base = draw(st.sampled_from(defined), label=f"ldb_{index}")
                defined.append(mb.load(base, "f", target=f"v{index}"))
            elif choice == 3:
                base = draw(st.sampled_from(defined), label=f"stb_{index}")
                source = draw(st.sampled_from(defined), label=f"sts_{index}")
                mb.store(base, "f", source)
            elif choice == 4:
                base = draw(st.sampled_from(defined), label=f"ivb_{index}")
                arg = draw(st.sampled_from(defined), label=f"iva_{index}")
                mb.invoke(base, "m", arg, target=f"v{index}")
                defined.append(f"v{index}")
            elif choice == 6:
                base = draw(st.sampled_from(defined), label=f"mkb_{index}")
                arg = draw(st.sampled_from(defined), label=f"mka_{index}")
                mb.invoke(base, "make", arg, target=f"v{index}")
                defined.append(f"v{index}")
            elif choice == 7:
                base = draw(st.sampled_from(defined), label=f"flb_{index}")
                box = draw(st.sampled_from(defined), label=f"flc_{index}")
                mb.invoke(base, "fill", box)
                defined.append(mb.load(box, "f", target=f"v{index}"))
            else:
                cls = draw(st.sampled_from(class_names), label=f"cst_{index}")
                source = draw(st.sampled_from(defined), label=f"css_{index}")
                defined.append(mb.cast(cls, source, target=f"v{index}"))
        helper_arg = draw(st.sampled_from(defined), label="util_arg")
        mb.static_invoke("Util", "id", helper_arg, target="util_result")
    return builder.build()

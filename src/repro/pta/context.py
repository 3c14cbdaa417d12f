"""Context sensitivity: contexts and context selectors.

A *context* is a tuple of context elements.  The element kind depends on
the flavour of sensitivity (Section 3.6 of the paper):

* **k-call-site** (k-CFA): the last ``k`` call-site ids on the call stack;
  allocation sites take the last ``k-1`` call sites as heap context.
* **k-object**: the receiver-object chain — allocation sites of the
  receiver, of the receiver's allocator, ...; heap context is the last
  ``k-1`` elements of the method context.
* **k-type**: like k-object but each object is replaced by the *class
  containing its allocation site* (Smaragdakis et al.).

A selector answers three questions for the solver:

* which context analyzes the callee of a virtual call,
* which context analyzes the callee of a static call,
* which heap context an allocation gets.

MAHJONG does not need its own selector: merged objects are forced to an
empty heap context by the solver (``HeapModel.is_merged``), and because a
merged object's identity *is* its representative, contexts containing it
automatically use the representative (Section 3.6.1).
"""

from __future__ import annotations

from typing import Optional, Tuple

__all__ = [
    "Context",
    "EMPTY_CONTEXT",
    "ContextSelector",
    "ContextInsensitive",
    "CallSiteSensitive",
    "ObjectSensitive",
    "TypeSensitive",
    "IntrospectiveSensitive",
    "selector_for",
]

#: A context is a tuple of hashable elements (ints for call sites and
#: object ids, strings for types).
Context = Tuple[object, ...]

EMPTY_CONTEXT: Context = ()


class ReceiverInfo:
    """What a selector may ask about the receiver object of a call.

    Decouples selectors from the solver's interning tables: the solver
    builds one of these per dispatch attempt.  Under a selector that
    ignores the receiver (:func:`ignores_receiver`) an attempt covers
    every receiver object of one class at once, and under a
    type-sensitive one every receiver sharing a class, heap context and
    context element; ``obj_id`` is then the lowest of them.  Otherwise
    an attempt is one receiver object.
    """

    __slots__ = ("obj_id", "heap_context", "context_element")

    def __init__(self, obj_id: int, heap_context: Context,
                 context_element: object) -> None:
        self.obj_id = obj_id
        self.heap_context = heap_context
        self.context_element = context_element


class ContextSelector:
    """Strategy interface for context sensitivity.

    ``callee`` (the resolved target's qualified name) is provided so
    selective/introspective strategies can refine per method; the plain
    strategies ignore it.
    """

    #: human-readable name (used in configs and reports)
    name = "abstract"

    def select_virtual(self, caller_context: Context, call_site: int,
                       receiver: ReceiverInfo,
                       callee: Optional[str] = None) -> Context:
        """Context for the callee of a virtual call."""
        raise NotImplementedError

    def select_static(self, caller_context: Context, call_site: int,
                      callee: Optional[str] = None) -> Context:
        """Context for the callee of a static call."""
        raise NotImplementedError

    def select_heap(self, method_context: Context, alloc_site: int) -> Context:
        """Heap context for an allocation in ``method_context``."""
        raise NotImplementedError


class ContextInsensitive(ContextSelector):
    """Everything analyzed in the single empty context (Andersen's)."""

    name = "ci"

    def select_virtual(self, caller_context: Context, call_site: int,
                       receiver: ReceiverInfo,
                       callee: Optional[str] = None) -> Context:
        return EMPTY_CONTEXT

    def select_static(self, caller_context: Context, call_site: int,
                      callee: Optional[str] = None) -> Context:
        return EMPTY_CONTEXT

    def select_heap(self, method_context: Context, alloc_site: int) -> Context:
        return EMPTY_CONTEXT


class CallSiteSensitive(ContextSelector):
    """k-CFA: method contexts are the last ``k`` call sites; heap contexts
    are the last ``k-1`` call sites of the allocating method's context."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.name = f"{k}cs"

    def select_virtual(self, caller_context: Context, call_site: int,
                       receiver: ReceiverInfo,
                       callee: Optional[str] = None) -> Context:
        return (caller_context + (call_site,))[-self.k:]

    def select_static(self, caller_context: Context, call_site: int,
                      callee: Optional[str] = None) -> Context:
        return (caller_context + (call_site,))[-self.k:]

    def select_heap(self, method_context: Context, alloc_site: int) -> Context:
        if self.k == 1:
            return EMPTY_CONTEXT
        return method_context[-(self.k - 1):]


class ObjectSensitive(ContextSelector):
    """k-object-sensitivity (Milanova et al.).

    The context of a callee is the receiver's heap context extended with
    the receiver itself, truncated to ``k`` elements; heap contexts keep
    ``k-1`` elements.  Static calls inherit the caller's context (the
    standard Doop treatment).
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.name = f"{k}obj"

    def select_virtual(self, caller_context: Context, call_site: int,
                       receiver: ReceiverInfo,
                       callee: Optional[str] = None) -> Context:
        return (receiver.heap_context + (receiver.context_element,))[-self.k:]

    def select_static(self, caller_context: Context, call_site: int,
                      callee: Optional[str] = None) -> Context:
        return caller_context

    def select_heap(self, method_context: Context, alloc_site: int) -> Context:
        if self.k == 1:
            return EMPTY_CONTEXT
        return method_context[-(self.k - 1):]


class TypeSensitive(ContextSelector):
    """k-type-sensitivity: k-object with objects projected to the class
    containing their allocation site.

    The solver passes the projected element via
    ``ReceiverInfo.context_element``, so this class is structurally the
    same as :class:`ObjectSensitive`; the distinction lives in
    :meth:`wants_type_elements`, which tells the solver which projection
    to apply.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.name = f"{k}type"

    def select_virtual(self, caller_context: Context, call_site: int,
                       receiver: ReceiverInfo,
                       callee: Optional[str] = None) -> Context:
        return (receiver.heap_context + (receiver.context_element,))[-self.k:]

    def select_static(self, caller_context: Context, call_site: int,
                      callee: Optional[str] = None) -> Context:
        return caller_context

    def select_heap(self, method_context: Context, alloc_site: int) -> Context:
        if self.k == 1:
            return EMPTY_CONTEXT
        return method_context[-(self.k - 1):]


class IntrospectiveSensitive(ContextSelector):
    """Selective refinement (after Smaragdakis et al., PLDI 2014): apply
    a base context-sensitive strategy only to methods a pre-analysis
    deemed cheap; analyze the expensive ones context-insensitively.

    ``refined`` decides per callee (by qualified name).  Unknown callees
    (``None``) are refined, so behaviour degrades gracefully to the base
    strategy.  Heap contexts follow the base strategy: an allocation in
    an unrefined method sits in the empty context anyway.
    """

    def __init__(self, base: ContextSelector, refined) -> None:
        self.base = base
        self.refined = refined
        self.name = f"introspective-{base.name}"

    def select_virtual(self, caller_context: Context, call_site: int,
                       receiver: ReceiverInfo,
                       callee: Optional[str] = None) -> Context:
        if callee is not None and not self.refined(callee):
            return EMPTY_CONTEXT
        return self.base.select_virtual(caller_context, call_site,
                                        receiver, callee)

    def select_static(self, caller_context: Context, call_site: int,
                      callee: Optional[str] = None) -> Context:
        if callee is not None and not self.refined(callee):
            return EMPTY_CONTEXT
        return self.base.select_static(caller_context, call_site, callee)

    def select_heap(self, method_context: Context, alloc_site: int) -> Context:
        return self.base.select_heap(method_context, alloc_site)


def wants_type_elements(selector: ContextSelector) -> bool:
    """True when object context elements must be projected to the class
    containing the allocation site (type-sensitivity)."""
    if isinstance(selector, IntrospectiveSensitive):
        return wants_type_elements(selector.base)
    return isinstance(selector, TypeSensitive)


def ignores_receiver(selector: ContextSelector) -> bool:
    """True when ``select_virtual`` never reads the receiver, so every
    receiver object of one class dispatches to the same callee context.
    The solver then dispatches one class's objects as one slice."""
    if isinstance(selector, IntrospectiveSensitive):
        return ignores_receiver(selector.base)
    return isinstance(selector, (ContextInsensitive, CallSiteSensitive))


def ignores_caller(selector: ContextSelector) -> bool:
    """True when ``select_virtual`` never reads the caller's context or
    the call site, so a callee's context is a function of the receiver's
    class, heap context and context element plus the callee alone.  The
    solver then resolves each (receiver key, method name, arity) once
    per solve."""
    if isinstance(selector, IntrospectiveSensitive):
        return ignores_caller(selector.base)
    return isinstance(selector, (ContextInsensitive, ObjectSensitive,
                                 TypeSensitive))


def selector_for(name: str) -> ContextSelector:
    """Build a selector from a name like ``ci``, ``2cs``, ``3obj``, ``2type``."""
    if name == "ci":
        return ContextInsensitive()
    for suffix, cls in (("cs", CallSiteSensitive), ("obj", ObjectSensitive),
                        ("type", TypeSensitive)):
        if name.endswith(suffix):
            digits = name[: -len(suffix)]
            if digits.isdigit():
                return cls(int(digits))
    raise ValueError(f"unknown context sensitivity {name!r}")

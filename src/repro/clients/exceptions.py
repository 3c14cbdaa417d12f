"""Escaping-exception client — a fourth type-dependent client.

Which exception *classes* may escape ``main`` uncaught?  The answer
depends only on the types of the objects reaching the entry method's
exceptional exit, which makes this client type-dependent in exactly the
paper's sense — so the MAHJONG abstraction preserves its precision,
just like call-graph construction, devirtualization, and may-fail
casting (tested in ``tests/test_clients_exceptions.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from repro.pta.bitset import bits_to_list
from repro.pta.results import PointsToResult

__all__ = ["ExceptionReport", "analyze_exceptions"]


@dataclass(frozen=True)
class ExceptionReport:
    """Escape summary for a solved program."""

    #: exception classes that may escape main uncaught
    escaping_classes: FrozenSet[str]
    #: method -> exception classes reaching its exceptional exit
    per_method: Dict[str, FrozenSet[str]]

    @property
    def escaping_class_count(self) -> int:
        """The headline metric: distinct classes escaping ``main``."""
        return len(self.escaping_classes)

    def may_throw(self, method_qualified_name: str) -> FrozenSet[str]:
        return self.per_method.get(method_qualified_name, frozenset())


def analyze_exceptions(result: PointsToResult) -> ExceptionReport:
    """Classify exceptional flow from a points-to result: one walk over
    the methods that have an exceptional exit."""
    per_method: Dict[str, FrozenSet[str]] = {}
    object_class = result.object_class
    for qname, bits in result.exception_bits():
        if bits:
            per_method[qname] = frozenset(
                object_class(obj) for obj in bits_to_list(bits))
    entry = result.program.entry
    escaping = per_method.get(entry.qualified_name, frozenset()) \
        if entry is not None else frozenset()
    return ExceptionReport(
        escaping_classes=escaping,
        per_method=per_method,
    )

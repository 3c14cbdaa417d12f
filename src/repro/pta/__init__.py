"""Context-sensitive points-to analysis substrate.

Public surface:

* :func:`solve` / :class:`Solver` — run an analysis;
* :mod:`repro.pta.context` — context-sensitivity strategies
  (``ci``, ``kcs``, ``kobj``, ``ktype``);
* :mod:`repro.pta.heapmodel` — heap abstractions (allocation-site,
  allocation-type, MAHJONG);
* :class:`PointsToResult` — queries over a finished solve.
"""

from repro.pta.context import (
    CallSiteSensitive,
    Context,
    ContextInsensitive,
    ContextSelector,
    EMPTY_CONTEXT,
    ObjectSensitive,
    TypeSensitive,
    selector_for,
)
from repro.pta.heapmodel import (
    AllocationSiteAbstraction,
    AllocationTypeAbstraction,
    HeapModel,
    MahjongAbstraction,
)
from repro.pta.results import PointsToResult
from repro.pta.solver import ObjectDescriptor, Solver, solve

__all__ = [
    "solve",
    "Solver",
    "ObjectDescriptor",
    "PointsToResult",
    "Context",
    "EMPTY_CONTEXT",
    "ContextSelector",
    "ContextInsensitive",
    "CallSiteSensitive",
    "ObjectSensitive",
    "TypeSensitive",
    "selector_for",
    "HeapModel",
    "AllocationSiteAbstraction",
    "AllocationTypeAbstraction",
    "MahjongAbstraction",
]

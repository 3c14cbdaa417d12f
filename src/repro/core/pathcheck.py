"""Direct (non-automata) checkers for Definition 2.1 — test oracles.

The paper reduces type-consistency to automata equivalence because
enumerating field-access paths is exponential (Section 2.2.1).  For
testing and the ablation bench we keep the direct formulations:

* :func:`type_consistent_by_paths` — enumerate every field string up to
  a depth bound and compare the reached type sets literally per
  Definition 2.1.  Exact on DAG-shaped FPGs when the bound covers the
  deeper of the two rooted subgraphs; a (sound) approximation under
  cycles, where only the automata reduction is exact.
* :func:`reached_types` — ``{τ[o] | o ∈ pts(root.f̄)}`` for one string.

Both operate on the subset-construction frontier, so "pts(o.f̄) is empty"
and "f̄ undefined" are distinguished exactly like the automata layer's
error convention does.
"""

from __future__ import annotations

from itertools import product
from typing import FrozenSet, Iterable, Sequence, Set, Tuple

from repro.core.automata import ERROR_TYPE_NAME
from repro.core.fpg import NULL_OBJECT, FieldPointsToGraph

__all__ = ["reached_types", "type_consistent_by_paths", "all_field_strings"]


def _step(fpg: FieldPointsToGraph, frontier: FrozenSet[int],
          field_name: str) -> FrozenSet[int]:
    """One subset-construction step (null self-loops included)."""
    result: Set[int] = set()
    for obj in frontier:
        if obj == NULL_OBJECT:
            result.add(NULL_OBJECT)
        else:
            result |= fpg.points_to(obj, field_name)
    return frozenset(result)


def reached_types(fpg: FieldPointsToGraph, root: int,
                  field_string: Sequence[str]) -> FrozenSet[str]:
    """``{τ[o] | o ∈ pts(root.f̄)}``, or ``{ERROR}`` when f̄ leads nowhere."""
    frontier: FrozenSet[int] = frozenset([root])
    for field_name in field_string:
        frontier = _step(fpg, frontier, field_name)
        if not frontier:
            return frozenset([ERROR_TYPE_NAME])
    return frozenset(fpg.type_of(obj) for obj in frontier)


def all_field_strings(fpg: FieldPointsToGraph, roots: Iterable[int],
                      max_length: int) -> Iterable[Tuple[str, ...]]:
    """Every field string over the fields reachable from ``roots``, up to
    ``max_length`` (the empty string included)."""
    fields: Set[str] = set()
    for root in roots:
        for obj in fpg.reachable_from(root):
            if obj != NULL_OBJECT:
                fields.update(fpg.fields_of(obj))
    ordered = sorted(fields)
    yield ()
    for length in range(1, max_length + 1):
        yield from product(ordered, repeat=length)


def type_consistent_by_paths(fpg: FieldPointsToGraph, oi: int, oj: int,
                             max_length: int) -> bool:
    """Definition 2.1 checked literally over bounded field strings.

    Condition 1: both objects reach the same type set along every string;
    Condition 2: that set is a singleton.  The empty string covers the
    same-type requirement.  Exponential in ``max_length`` — oracle only.
    """
    for field_string in all_field_strings(fpg, (oi, oj), max_length):
        types_i = reached_types(fpg, oi, field_string)
        types_j = reached_types(fpg, oj, field_string)
        if types_i != types_j:
            return False
        if types_i != frozenset([ERROR_TYPE_NAME]) and len(types_i) != 1:
            return False
    return True


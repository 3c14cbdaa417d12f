"""The literal Algorithm 1 of the paper: the all-pairs merge loop.

:func:`repro.core.merging.merge_type_consistent_objects` compares each
object only against one representative per existing class, relying on
``≡`` being transitive.  This module keeps the double loop over every
same-type pair, exactly as the paper writes it (with a union-find, so
pairs already merged are skipped, as ``W.FIND`` does), as the oracle
the engine's quotient is checked against.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.automata import SharedAutomata
from repro.core.disjoint_sets import DisjointSets
from repro.core.equivalence import shared_equivalent
from repro.core.fpg import FieldPointsToGraph


def all_pairs_classes(fpg: FieldPointsToGraph) -> List[Set[int]]:
    """``H/≡`` by testing every pair of same-type objects."""
    automata = SharedAutomata(fpg)
    by_type: Dict[str, List[int]] = {}
    for obj in fpg.objects():
        by_type.setdefault(fpg.type_of(obj), []).append(obj)
    sets: DisjointSets = DisjointSets(fpg.objects())
    for objs in by_type.values():
        objs.sort()
        for i, oi in enumerate(objs):
            if not automata.singletype(oi):
                continue
            for oj in objs[i + 1:]:
                if sets.connected(oi, oj) or not automata.singletype(oj):
                    continue
                if shared_equivalent(automata.dfa_root(oi),
                                     automata.dfa_root(oj)):
                    sets.union(oi, oj)
    return list(sets.classes())

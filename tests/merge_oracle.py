"""The literal Algorithm 1 of the paper: the all-pairs merge loop.

:func:`repro.core.merging.merge_type_consistent_objects` compares each
object only against one representative per existing class, relying on
``≡`` being transitive.  This module keeps the double loop over every
same-type pair, exactly as the paper writes it (pairs already merged
are skipped, as ``W.FIND`` does), as the oracle the engine's quotient
is checked against.

It shares no code with what it checks: each object gets its own
explicit DFA (``nfa_to_dfa(build_nfa(fpg, o))``, Algorithms 2 and 3)
instead of the shared automata, Condition 2 is "every γ of that DFA is
a singleton", equivalence is the product-automaton search
:func:`~repro.core.equivalence.brute_force_equivalent` instead of
Hopcroft–Karp, and classes are a plain dict instead of a disjoint-set
forest.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.automata import build_nfa, nfa_to_dfa
from repro.core.equivalence import brute_force_equivalent
from repro.core.fpg import FieldPointsToGraph


def all_pairs_classes(fpg: FieldPointsToGraph) -> List[Set[int]]:
    """``H/≡`` by testing every pair of same-type objects."""
    objects = sorted(fpg.objects())
    dfa = {obj: nfa_to_dfa(build_nfa(fpg, obj)) for obj in objects}
    singletype = {obj: all(len(types) == 1 for types in dfa[obj].gamma.values())
                  for obj in objects}
    by_type: Dict[str, List[int]] = {}
    for obj in objects:
        by_type.setdefault(fpg.type_of(obj), []).append(obj)
    # object -> the label of its class; merging relabels a whole class
    label = {obj: obj for obj in objects}
    for objs in by_type.values():
        for i, oi in enumerate(objs):
            if not singletype[oi]:
                continue
            for oj in objs[i + 1:]:
                if label[oi] == label[oj] or not singletype[oj]:
                    continue
                if brute_force_equivalent(dfa[oi], dfa[oj]):
                    old, new = label[oj], label[oi]
                    for obj, cls in label.items():
                        if cls == old:
                            label[obj] = new
    classes: Dict[int, Set[int]] = {}
    for obj, cls in label.items():
        classes.setdefault(cls, set()).add(obj)
    return list(classes.values())

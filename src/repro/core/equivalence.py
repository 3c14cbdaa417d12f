"""Automata equivalence checking — Algorithm 4 (EQUIV-CHECKER).

The classic Hopcroft–Karp union–find algorithm for DFA equivalence,
modified for 6-tuple sequential automata: instead of comparing accepting
status, the final condition requires every merged class of states to
agree on the output map γ (here: the type set of each DFA state).

Undefined transitions go to the implicit error state ``q_error`` with
``γ[q_error] = {ERROR_TYPE_NAME}`` (Section 4.4's convention).

Three implementations, all behaviourally identical:

* :func:`dfa_equivalent` — over explicit :class:`SequentialDFA` values,
  literal Algorithm 4 with the γ check performed at the end, exactly as
  written in the paper;
* :func:`shared_equivalent` — over :class:`SharedAutomata` states, with
  the γ check folded into each union (early exit), the variant the
  merging engine uses: one union–find dict keyed by the states
  themselves, no per-test closures;
* :func:`brute_force_equivalent` — a product-automaton BFS oracle used
  by the property tests (no union–find, quadratic).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.automata import (
    DFAState,
    ERROR_TYPE_NAME,
    SequentialDFA,
)
from repro.core.disjoint_sets import DisjointSets

__all__ = ["dfa_equivalent", "shared_equivalent", "brute_force_equivalent"]

_ERROR_OUTPUT: FrozenSet[str] = frozenset([ERROR_TYPE_NAME])

#: the transitions of ``q_error``: none, every symbol stays in error
_NO_TRANSITIONS: Dict[str, DFAState] = {}


# ----------------------------------------------------------------------
# Explicit DFAs (reference implementation of Algorithm 4)
# ----------------------------------------------------------------------
def dfa_equivalent(dfa1: SequentialDFA, dfa2: SequentialDFA) -> bool:
    """Are the two sequential DFAs equivalent (same behaviour β)?

    Follows Algorithm 4 line by line: union the two start states, then
    for every popped pair and every input symbol, union the successor
    classes; finally check that all states in each class share one
    output.  States of the two DFAs are tagged 1/2 so same-valued states
    from different automata stay distinct, and ``None`` plays q_error.
    """
    # Tagged state: (which_dfa, state) ; q_error is the shared None.
    ErrorState = None
    q1 = (1, dfa1.q0)
    q2 = (2, dfa2.q0)

    def delta(tagged, symbol: str):
        if tagged is ErrorState:
            return ErrorState
        which, state = tagged
        dfa = dfa1 if which == 1 else dfa2
        successor = dfa.delta.get((state, symbol))
        if successor is None:
            return ErrorState
        return (which, successor)

    def gamma(tagged) -> FrozenSet[str]:
        if tagged is ErrorState:
            return _ERROR_OUTPUT
        which, state = tagged
        dfa = dfa1 if which == 1 else dfa2
        return dfa.gamma[state]

    sets: DisjointSets = DisjointSets()
    for state in dfa1.states:
        sets.add((1, state))
    for state in dfa2.states:
        sets.add((2, state))
    sets.add(_ERROR_KEY)

    def find(tagged):
        return sets.find(_ERROR_KEY if tagged is ErrorState else tagged)

    sigma = dfa1.sigma | dfa2.sigma
    sets.union(q1, q2)
    stack: List[Tuple[object, object]] = [(q1, q2)]
    while stack:
        p1, p2 = stack.pop()
        for symbol in sigma:
            r1 = find(delta(p1, symbol))
            r2 = find(delta(p2, symbol))
            if r1 != r2:
                sets.union(r1, r2)
                stack.append((_untag_error(r1), _untag_error(r2)))
    # Final check: within every class, all states output the same γ.
    outputs_by_root: Dict[object, FrozenSet[str]] = {}
    for cls in sets.classes():
        expected: Optional[FrozenSet[str]] = None
        for tagged in cls:
            out = _ERROR_OUTPUT if tagged == _ERROR_KEY else gamma(tagged)
            if expected is None:
                expected = out
            elif out != expected:
                return False
        outputs_by_root[sets.find(next(iter(cls)))] = expected or _ERROR_OUTPUT
    return True


_ERROR_KEY = ("error",)


def _untag_error(tagged):
    return None if tagged == _ERROR_KEY else tagged


# ----------------------------------------------------------------------
# Shared automata (the production path)
# ----------------------------------------------------------------------
def shared_equivalent(root1: DFAState, root2: DFAState) -> bool:
    """Algorithm 4 over shared DFA states, with the γ check performed at
    each union instead of at the end (identical verdict, earlier exit).

    Shared states are compared by identity (the :class:`SharedAutomata`
    memo guarantees one object per state set), so when both roots come
    from the same universe, structurally identical automata unify
    immediately, and a successor pair that is one state is skipped.
    The union–find is one dict from each non-root state to its parent,
    keyed by the states themselves, with ``None`` for ``q_error``; a
    class's output is its root's γ.
    """
    if root1 is root2:
        return True
    if root1.types != root2.types:
        return False
    parent: Dict[Optional[DFAState], Optional[DFAState]] = {root2: root1}
    stack: List[Tuple[Optional[DFAState], Optional[DFAState]]] = [
        (root1, root2)]
    while stack:
        p1, p2 = stack.pop()
        t1 = _NO_TRANSITIONS if p1 is None else p1.transitions
        t2 = _NO_TRANSITIONS if p2 is None else p2.transitions
        if t1.keys() == t2.keys():
            # one alphabet: walk one map
            pairs = zip(t1.values(), map(t2.__getitem__, t1))
        else:
            symbols = t1.keys() | t2.keys()
            pairs = zip(map(t1.get, symbols), map(t2.get, symbols))
        for n1, n2 in pairs:
            if n1 is n2:
                continue
            r1 = n1
            while r1 in parent:
                r1 = parent[r1]
            r2 = n2
            while r2 in parent:
                r2 = parent[r2]
            if r1 is r2:
                continue
            g1 = _ERROR_OUTPUT if r1 is None else r1.types
            g2 = _ERROR_OUTPUT if r2 is None else r2.types
            if g1 != g2:
                return False
            parent[r2] = r1
            stack.append((r1, r2))
    return True


# ----------------------------------------------------------------------
# Brute-force oracle for property tests
# ----------------------------------------------------------------------
def brute_force_equivalent(dfa1: SequentialDFA, dfa2: SequentialDFA) -> bool:
    """Product-automaton BFS: two DFAs are equivalent iff every reachable
    pair of (possibly error) states agrees on γ.  Used as an independent
    oracle for :func:`dfa_equivalent` and :func:`shared_equivalent`."""
    sigma = dfa1.sigma | dfa2.sigma
    start = (dfa1.q0, dfa2.q0)
    seen: Set[Tuple[object, object]] = {start}
    queue: List[Tuple[object, object]] = [start]
    while queue:
        s1, s2 = queue.pop()
        out1 = dfa1.gamma[s1] if s1 is not None else _ERROR_OUTPUT
        out2 = dfa2.gamma[s2] if s2 is not None else _ERROR_OUTPUT
        if out1 != out2:
            return False
        for symbol in sigma:
            n1 = dfa1.delta.get((s1, symbol)) if s1 is not None else None
            n2 = dfa2.delta.get((s2, symbol)) if s2 is not None else None
            pair = (n1, n2)
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True

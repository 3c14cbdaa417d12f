"""Sequential automata over the field points-to graph (Sections 2.2.2–4.3).

The paper maps the field points-to graph rooted at an object ``o`` to a
6-tuple *sequential automaton* ``A_o = (Q, Σ, δ, q0, Γ, γ)`` (Figure 4):
states are heap objects, input symbols are field names, outputs are
types.  Checking type-consistency of two objects becomes checking
equivalence of their automata.

This module provides both representations used in the system:

* **Explicit automata** — :class:`SequentialNFA` built by
  :func:`build_nfa` (Algorithm 2) and :class:`SequentialDFA` built by
  :func:`nfa_to_dfa` (Algorithm 3, subset construction).  These are
  simple, allocate per object, and serve as the reference implementation
  and test oracle.

* **Shared automata** — :class:`SharedAutomata`, the paper's
  "shared sequential automata" optimization (Section 5): DFA states are
  globally memoized by their object set, so automata of different roots
  share every common substructure, and each state's transitions are
  computed exactly once across the whole merging run.

Conventions (Section 4):

* the dummy null object has an implicit self-loop on every field
  (``(o_null, f, o_null) ∈ E``);
* a transition on a field no object in the state defines goes to the
  implicit error state ``q_error`` whose output is a special error type;
* the DFA output map is ``γ'[q] = {TYPEOF(o) | o ∈ q}`` — a *set* of
  types, singleton exactly when Condition 2 of Definition 2.1 holds
  along the strings reaching ``q``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.fpg import NULL_OBJECT, FieldPointsToGraph
from repro.ir.types import ERROR_TYPE

__all__ = [
    "SequentialNFA",
    "SequentialDFA",
    "DFAState",
    "build_nfa",
    "nfa_to_dfa",
    "SharedAutomata",
    "ERROR_TYPE_NAME",
]

#: γ[q_error] — the "special type for q_error" of Section 4.4.
ERROR_TYPE_NAME = ERROR_TYPE.name


# ----------------------------------------------------------------------
# Explicit automata (reference implementation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SequentialNFA:
    """A 6-tuple sequential NFA ``(Q, Σ, δ, q0, Γ, γ)`` (Figure 4).

    ``delta`` maps ``(state, symbol)`` to a frozenset of states; symbols
    absent from a state's row are implicit error transitions.
    """

    q0: int
    states: FrozenSet[int]
    sigma: FrozenSet[str]
    delta: Dict[Tuple[int, str], FrozenSet[int]]
    gamma: Dict[int, str]

    @property
    def outputs(self) -> FrozenSet[str]:
        """Γ — the set of output symbols (types)."""
        return frozenset(self.gamma.values())

    def size(self) -> int:
        """|Q| — the NFA size metric reported in Section 6.1.1."""
        return len(self.states)


@dataclass(frozen=True)
class SequentialDFA:
    """A 6-tuple sequential DFA; states are frozensets of NFA states.

    ``gamma`` maps each DFA state to its *set* of output types.
    """

    q0: FrozenSet[int]
    states: FrozenSet[FrozenSet[int]]
    sigma: FrozenSet[str]
    delta: Dict[Tuple[FrozenSet[int], str], FrozenSet[int]]
    gamma: Dict[FrozenSet[int], FrozenSet[str]]

    def size(self) -> int:
        return len(self.states)

    def behavior(self, word: Iterable[str]) -> FrozenSet[str]:
        """β(word): the output set after reading ``word`` (Section 2.2.2),
        with the error convention for undefined transitions."""
        state: Optional[FrozenSet[int]] = self.q0
        for symbol in word:
            assert state is not None
            state = self.delta.get((state, symbol))
            if state is None:
                return frozenset([ERROR_TYPE_NAME])
        return self.gamma[state]


def build_nfa(fpg: FieldPointsToGraph, root: int) -> SequentialNFA:
    """Algorithm 2 (NFA-BUILDER): the NFA of the FPG rooted at ``root``."""
    states = frozenset(fpg.reachable_from(root))
    sigma: Set[str] = set()
    gamma: Dict[int, str] = {}
    delta: Dict[Tuple[int, str], FrozenSet[int]] = {}
    for obj in states:
        gamma[obj] = fpg.type_of(obj)
        if obj == NULL_OBJECT:
            continue
        for field_name in fpg.fields_of(obj):
            sigma.add(field_name)
            delta[(obj, field_name)] = fpg.points_to(obj, field_name)
    # The null object's implicit self-loop on every field in Σ.
    if NULL_OBJECT in states:
        null_set = frozenset([NULL_OBJECT])
        for field_name in sigma:
            key = (NULL_OBJECT, field_name)
            delta[key] = null_set
    return SequentialNFA(root, states, frozenset(sigma), delta, gamma)


def nfa_to_dfa(nfa: SequentialNFA) -> SequentialDFA:
    """Algorithm 3 (DFA-CONVERTER): subset construction, no ε-transitions.

    Differences from the textbook construction, per the paper: fields are
    enumerated from the objects actually in the state (not the whole Σ),
    and outputs are computed as type *sets* per DFA state.

    The pure-``{null}`` state is a dead end (no outgoing symbols) rather
    than carrying the paper's ``(o_null, f, o_null)`` self-loops; the two
    conventions yield identical equivalence verdicts (a state with output
    ``{null}`` can only ever be compared against another pure-null
    state), and a dead end is what :class:`SharedAutomata` builds, so the
    explicit and shared representations stay structurally identical.
    Null objects *inside* mixed states still propagate along every field.
    """
    q0 = frozenset([nfa.q0])
    states: Set[FrozenSet[int]] = {q0}
    delta: Dict[Tuple[FrozenSet[int], str], FrozenSet[int]] = {}
    gamma: Dict[FrozenSet[int], FrozenSet[str]] = {}
    unmarked: List[FrozenSet[int]] = [q0]
    while unmarked:
        state = unmarked.pop()
        symbols: Set[str] = set()
        for obj in state:
            if obj == NULL_OBJECT:
                continue
            for (source, symbol) in nfa.delta:
                if source == obj:
                    symbols.add(symbol)
        for symbol in symbols:
            successor: Set[int] = set()
            for obj in state:
                successor |= nfa.delta.get((obj, symbol), frozenset())
            if not successor:
                continue
            next_state = frozenset(successor)
            if next_state not in states:
                states.add(next_state)
                unmarked.append(next_state)
            delta[(state, symbol)] = next_state
    for state in states:
        gamma[state] = frozenset(nfa.gamma[obj] for obj in state)
    return SequentialDFA(q0, frozenset(states), nfa.sigma, delta, gamma)


# ----------------------------------------------------------------------
# Shared automata (the Section 5 optimization, used by merging)
# ----------------------------------------------------------------------
class DFAState:
    """One memoized DFA state: a set of heap objects.

    ``transitions`` maps field names to successor :class:`DFAState`
    objects; fields absent from the map are implicit error transitions.
    ``types`` is the output set γ'[q].
    """

    __slots__ = ("objects", "types", "transitions", "_singletype")

    def __init__(self, objects: FrozenSet[int], types: FrozenSet[str]) -> None:
        self.objects = objects
        self.types = types
        self.transitions: Dict[str, "DFAState"] = {}
        self._singletype: Optional[bool] = None

    def __repr__(self) -> str:
        return f"DFAState({sorted(self.objects)}, types={sorted(self.types)})"


class SharedAutomata:
    """Globally shared subset construction over one FPG.

    All per-object DFAs live in one memo table keyed by the state's
    object set, so ``dfa_root(o1)`` and ``dfa_root(o2)`` share every
    common substructure — the paper's "shared sequential automata"
    optimization.
    """

    def __init__(self, fpg: FieldPointsToGraph) -> None:
        self._fpg = fpg
        self._states: Dict[FrozenSet[int], DFAState] = {}
        self._roots: Dict[int, DFAState] = {}
        self.transition_computations = 0

    # -- construction ---------------------------------------------------
    def dfa_root(self, obj: int) -> DFAState:
        """The (fully materialized) DFA start state for object ``obj``."""
        root = self._roots.get(obj)
        if root is None:
            root = self._materialize(frozenset([obj]))
            self._roots[obj] = root
        return root

    def _state(self, objects: FrozenSet[int]) -> Tuple[DFAState, bool]:
        state = self._states.get(objects)
        if state is not None:
            return state, False
        fpg = self._fpg
        types = frozenset(fpg.type_of(o) for o in objects)
        state = DFAState(objects, types)
        self._states[objects] = state
        return state, True

    def _materialize(self, start_objects: FrozenSet[int]) -> DFAState:
        """Subset construction from ``start_objects``, reusing every
        already-known state (transitions are computed once per state
        across the entire lifetime of this instance)."""
        start, fresh = self._state(start_objects)
        if not fresh:
            return start
        fpg = self._fpg
        worklist = [start]
        while worklist:
            state = worklist.pop()
            symbols: Set[str] = set()
            for obj in state.objects:
                if obj != NULL_OBJECT:
                    symbols.update(fpg.fields_of(obj))
            self.transition_computations += 1
            for symbol in symbols:
                successor: Set[int] = set()
                for obj in state.objects:
                    if obj == NULL_OBJECT:
                        successor.add(NULL_OBJECT)
                    else:
                        successor |= fpg.points_to(obj, symbol)
                if not successor:
                    continue
                next_state, next_fresh = self._state(frozenset(successor))
                state.transitions[symbol] = next_state
                if next_fresh:
                    worklist.append(next_state)
        return start

    # -- queries ----------------------------------------------------------
    def singletype(self, obj: int) -> bool:
        """``SINGLETYPE-CHECK`` (Condition 2 of Definition 2.1): every DFA
        state reachable from ``obj``'s start state has a singleton output
        set."""
        return self._singletype_state(self.dfa_root(obj))

    def _singletype_state(self, root: DFAState) -> bool:
        cached = root._singletype
        if cached is not None:
            return cached
        ok = True
        seen: Set[int] = set()
        stack = [root]
        visited: List[DFAState] = []
        while stack:
            state = stack.pop()
            marker = id(state)
            if marker in seen:
                continue
            seen.add(marker)
            visited.append(state)
            if state._singletype is False or len(state.types) != 1:
                ok = False
                break
            if state._singletype is True:
                continue
            stack.extend(state.transitions.values())
        if ok:
            # "every reachable state is singleton" holds for each visited
            # state too, so the positive result is safely shareable.
            for state in visited:
                state._singletype = True
        else:
            root._singletype = False
        return ok

    def state_count(self) -> int:
        """Total memoized DFA states (sharing metric for the bench)."""
        return len(self._states)

    def nfa_size(self, obj: int) -> int:
        """|Q| of the NFA rooted at ``obj`` (Section 6.1.1 statistic)."""
        return len(self._fpg.reachable_from(obj))

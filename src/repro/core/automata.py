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
  computed exactly once across the whole merging run.  Most states hold
  one object (the FPGs of real programs are nearly deterministic), so
  such a state is keyed by its object id and takes the object's FPG
  edges as its transitions; only states of several objects pay for a
  frozenset key and a subset-construction step.

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

from dataclasses import dataclass
from typing import (AbstractSet, Callable, Dict, FrozenSet, Iterable, List,
                    Mapping, Optional, Set, Tuple)

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
def _subset_moves(
    objects: FrozenSet[int],
    successors: Callable[[int], Mapping[str, AbstractSet[int]]],
) -> List[Tuple[str, Set[int]]]:
    """The subset-construction step of a state of several objects:
    ``(symbol, successor objects)`` for every field a non-null member
    defines.  A null member follows every such field to null."""
    tables = [successors(o) for o in objects if o != NULL_OBJECT]
    has_null = NULL_OBJECT in objects
    symbols: Set[str] = set()
    for table in tables:
        symbols.update(table)
    moves = []
    for symbol in symbols:
        successor: Set[int] = {NULL_OBJECT} if has_null else set()
        for table in tables:
            targets = table.get(symbol)
            if targets:
                successor |= targets
        moves.append((symbol, successor))
    return moves


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

    All per-object DFAs live in one memo table, so ``dfa_root(o1)`` and
    ``dfa_root(o2)`` share every common substructure — the paper's
    "shared sequential automata" optimization.  A one-object state is
    keyed by its object id and reads its transitions straight from the
    FPG's successor sets; every other state is keyed by its object
    frozenset and takes the subset-construction step.
    """

    def __init__(self, fpg: FieldPointsToGraph) -> None:
        self._fpg = fpg
        # object id (one-object states) or object frozenset -> state
        self._states: Dict[object, DFAState] = {}
        # type name -> its interned singleton output set
        self._gamma: Dict[str, FrozenSet[str]] = {}
        self.transition_computations = 0

    # -- construction ---------------------------------------------------
    def dfa_root(self, obj: int) -> DFAState:
        """The (fully materialized) DFA start state for object ``obj``.

        Every memoized state is complete once the construction that
        created it returns, so a known state is returned as is."""
        state = self._states.get(obj)
        if state is None:
            state = self._materialize(obj)
        return state

    def _new_state(self, key: object) -> DFAState:
        """Memoize a fresh state under ``key``: an object id or a
        frozenset of at least two objects."""
        type_of = self._fpg.type_of
        if type(key) is int:
            objects: FrozenSet[int] = frozenset((key,))
            name = type_of(key)
            types = self._gamma.get(name)
            if types is None:
                types = self._gamma[name] = frozenset((name,))
        else:
            objects = key  # type: ignore[assignment]
            types = frozenset(map(type_of, objects))
        state = self._states[key] = DFAState(objects, types)
        return state

    def _materialize(self, obj: int) -> DFAState:
        """Subset construction from ``{obj}``, reusing every
        already-known state (transitions are computed once per state
        across the entire lifetime of this instance)."""
        states = self._states
        successors = self._fpg.successors
        start = self._new_state(obj)
        worklist = [(obj, start)]
        computations = 0
        while worklist:
            key, state = worklist.pop()
            computations += 1
            if type(key) is not int:
                moves = _subset_moves(key, successors)
            elif key != NULL_OBJECT:
                # one object: its edges are the transitions
                moves = successors(key).items()
            else:
                # the pure-null state is a dead end
                continue
            transitions = state.transitions
            for symbol, targets in moves:
                if not targets:
                    continue
                if len(targets) == 1:
                    (next_key,) = targets
                else:
                    next_key = frozenset(targets)
                next_state = states.get(next_key)
                if next_state is None:
                    next_state = self._new_state(next_key)
                    worklist.append((next_key, next_state))
                transitions[symbol] = next_state
        self.transition_computations += computations
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

"""Online cycle elimination for the Andersen constraint graph.

Worklist Andersen solvers waste most of their redundant work inside
*pointer cycles*: once a cycle of unfiltered copy edges
``x1 → x2 → … → xk → x1`` forms, every delta entering the cycle is
re-propagated around it until the members agree — and at fixpoint all
members provably hold the **same** points-to set (each edge is a ``⊇``
constraint, so the sets subsume each other transitively).  Collapsing a
cycle's members into one representative node therefore loses nothing
and replaces O(k) unions per incoming delta with one.

Condensation is always on.  This module owns the two generic pieces
the solver composes:

* :class:`AdaptiveGate` — the per-stride-window statistics that defer
  a detection pass while fresh-node creation dominates;
* :func:`condense_copy_graph` — an **iterative Tarjan** pass over the
  copy-edge subgraph of the live representatives.  It returns both the
  multi-member components (the cycles to collapse) and a topological
  order of the condensation, which the solver uses as *wave
  priorities*: pops are scheduled source-to-sink so deltas cross the
  condensed DAG in few passes instead of FIFO churn.

Only **unfiltered** edges participate in detection.  A cast- or
catch-filtered edge ``x →[T] y`` is not a pointer equivalence — it
constrains ``pts(y) ⊇ filter_T(pts(x))``, a strict subset in general —
so filtered edges always survive condensation as real edges between
representatives (a filtered edge whose endpoints merge becomes the
trivially-satisfied ``pts(x) ⊇ filter_T(pts(x))`` and is dropped).
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Container, Dict, List, Optional, Sequence,
                    Tuple)

if TYPE_CHECKING:  # pragma: no cover — import cycle through repro.core
    from repro.core.disjoint_sets import IntDisjointSets

__all__ = [
    "condense_copy_graph",
    "AdaptiveGate",
    "DOMINANCE_FACTOR",
]

#: A stride window is *creation-dominated* when it interned at least
#: ``window_pops / DOMINANCE_FACTOR`` fresh nodes: the constraint graph
#: is still growing faster than facts settle, so any ranking computed
#: now is stale by the time the next window pops against it.
DOMINANCE_FACTOR = 16


class AdaptiveGate:
    """Per-stride-window statistics deciding whether a condensation
    pass is worth running.

    The solver calls :meth:`reset_baseline` once the static seed graph
    is built, then :meth:`creation_dominated` exactly once per stride
    gate with the window's pop count and the current node total.  The
    verdict combines two views of the fresh-node creation rate:

    * the **window** just closed — creation bursts defer the next pass
      even late in a solve;
    * the **cumulative** rate since the baseline — deep-context
      workloads (the luindex/2obj regression of EXPERIMENTS.md) intern
      fresh context/heap nodes throughout, so any ranking is stale on
      arrival for the *entire* solve, even in the occasional window
      where the burst pauses.  A graph that has genuinely settled
      (creation stopped while pops continue) drives the cumulative
      ratio down and re-opens the gate.

    Skipping a pass only defers an optimization — collapse never
    affects the fixpoint — so correctness is untouched.
    """

    __slots__ = ("dominance_factor", "_baseline_nodes", "_nodes_at_gate",
                 "_pops")

    def __init__(self, dominance_factor: int = DOMINANCE_FACTOR) -> None:
        self.dominance_factor = dominance_factor
        self._baseline_nodes = 0
        self._nodes_at_gate = 0
        self._pops = 0

    def reset_baseline(self, nodes: int) -> None:
        """Start counting from ``nodes`` — called after static seeding
        so construction-time interning never counts as mid-solve
        creation."""
        self._baseline_nodes = nodes
        self._nodes_at_gate = nodes
        self._pops = 0

    def creation_dominated(self, window_pops: int, nodes: int) -> bool:
        """Record the window boundary; True when fresh-node creation
        dominated either the window just closed or the solve so far."""
        created = nodes - self._nodes_at_gate
        self._nodes_at_gate = nodes
        self._pops += window_pops
        factor = self.dominance_factor
        if created * factor >= window_pops:
            return True
        return (nodes - self._baseline_nodes) * factor >= self._pops


def condense_copy_graph(
    succs: List[Sequence[Tuple[int, Optional[str]]]],
    uf: "IntDisjointSets",
    tracer=None,
    pts: Optional[Sequence[int]] = None,
    queued: Optional[Sequence[int]] = None,
    pending: Optional[Container[int]] = None,
) -> Tuple[List[List[int]], Dict[int, int]]:
    """One Tarjan pass over the copy-edge subgraph of the live nodes.

    ``succs`` is the solver's adjacency list (``succs[i]`` holds
    ``(target, filter_class)`` pairs); only entries with
    ``filter_class is None`` are copy edges.  Targets may be stale
    (merged in an earlier pass) and are resolved through ``uf.find``;
    nodes that are not their own representative are skipped entirely.

    Returns ``(cycles, order)``:

    * ``cycles`` — the member lists of every strongly connected
      component with more than one node (the collapse work list);
    * ``order`` — a topological index per visited node, **sources
      first** (0 is popped before 1), with all members of one component
      sharing their component's index.  Correctness never depends on
      this order — it only schedules the solver's waves — so staleness
      after later merges is benign.

    The traversal is fully iterative (explicit stacks); recursion depth
    is not bounded by component size.  A node without successors is a
    component of its own, so it is emitted where it is met, as a start
    or as the target of an edge, without a traversal frame; the result
    is the one a frame per node would give.

    ``pts``, ``queued`` and ``pending`` (optional, given together: the
    solver's points-to sets, queued FIFO deltas and pending wave
    deltas) keep *idle* nodes unranked: a node without successors that
    holds no object and has no delta waiting is not used as a start, so
    it appears in ``order`` only when an edge reaches it.  These are
    the reserved frame slots no statement has touched yet, so they keep
    the fresh-node priority they would have had before they existed.

    ``tracer`` (a :class:`repro.obs.Tracer`, optional) receives one
    ``scc:condense`` instant with the pass's visited/cycle counts.
    """
    find = uf.find
    parent = uf.parent
    n = len(succs)
    # flat arrays over node ids, not dicts: a pass runs on the solve's
    # stride gate, so its constant factor is paid repeatedly
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    comp_stack: List[int] = []
    next_index = 0
    cycles: List[List[int]] = []
    emit = [-1] * n
    emitted = 0

    for start in range(n):
        if parent[start] != start or index[start] >= 0:
            continue
        if not succs[start]:
            if (pts is not None and not pts[start] and not queued[start]
                    and start not in pending):
                continue
            index[start] = next_index
            next_index += 1
            emit[start] = emitted
            emitted += 1
            continue
        call: List[List[object]] = [[start, None]]
        while call:
            frame = call[-1]
            node = frame[0]
            if frame[1] is None:
                index[node] = low[node] = next_index
                next_index += 1
                comp_stack.append(node)
                on_stack[node] = 1
                frame[1] = iter(succs[node])
            descended = False
            for target, filter_class in frame[1]:
                if filter_class is not None:
                    continue
                succ = target if parent[target] == target else find(target)
                if succ == node:
                    continue
                if index[succ] < 0:
                    if not succs[succ]:
                        # a leaf: its component is itself, emitted now
                        index[succ] = next_index
                        next_index += 1
                        emit[succ] = emitted
                        emitted += 1
                        continue
                    call.append([succ, None])
                    descended = True
                    break
                if on_stack[succ] and index[succ] < low[node]:
                    low[node] = index[succ]
            if descended:
                continue
            call.pop()
            if call:
                caller = call[-1][0]
                if low[node] < low[caller]:
                    low[caller] = low[node]
            if low[node] == index[node]:
                members: List[int] = []
                while True:
                    member = comp_stack.pop()
                    on_stack[member] = 0
                    members.append(member)
                    if member == node:
                        break
                for member in members:
                    emit[member] = emitted
                emitted += 1
                if len(members) > 1:
                    cycles.append(members)

    # Tarjan emits components sinks-first; waves want sources popped
    # first, so invert the emission index.
    last = emitted - 1
    order = {node: last - e
             for node, e in enumerate(emit) if e >= 0}
    if tracer is not None:
        tracer.instant("scc:condense", visited=len(order),
                       components=emitted, cycles=len(cycles))
    return cycles, order

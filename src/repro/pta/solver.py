"""Context-sensitive, field-sensitive Andersen-style points-to solver.

This is the "allocation-site-based points-to analysis" substrate of the
paper: the same algorithmic family Doop implements, as an explicit
worklist propagation with on-the-fly call-graph construction.

Design:

* **Nodes** are interned integers.  A node is one of

  - a variable node ``(context, method, var)``,
  - an instance field node ``(abstract object, field)``,
  - a static field node ``(class, field)``.

* **Abstract objects** are interned integers identifying
  ``(site_key, heap_context)`` pairs, where ``site_key`` comes from the
  pluggable :class:`~repro.pta.heapmodel.HeapModel` — the only place the
  allocation-site / allocation-type / MAHJONG abstractions differ.

* **Points-to sets** are bit-vectors (:mod:`repro.pta.bitset`): a set
  of object ids is one arbitrary-precision int, so propagation is
  difference propagation in the literal sense: the surviving delta is
  ``delta & ~known``, union is ``|``, and pushing a whole set across a
  new edge is pushing an immutable int (no copy).

* **Pointer-flow edges** carry an optional cast filter: ``x = (T) y``
  propagates only objects whose class is a subtype of ``T`` (Doop-style
  cast filtering), which the may-fail-cast client piggybacks on.  The
  filter is a single AND against a class-hierarchy mask
  (:class:`~repro.pta.bitset.RangeFilterMasks`).

* **Context sensitivity** is a pluggable
  :class:`~repro.pta.context.ContextSelector`; merged objects (MAHJONG,
  allocation-type) are forced to the empty heap context here, per
  Section 3.6 of the paper.

* **Two fixpoint loops.**  The FIFO loop coalesces pushes that land on
  a still-queued node into its worklist entry, so the node is popped
  once with the union.  The wave loop pops per-node pending deltas in
  the constraint graph's topological order.  Both share one stride
  gate (wall-clock deadline, governor, fault plan, trace windows) that
  runs every 1024 pops.

* **Constraint-graph condensation** (on by default; ``REPRO_SCC=off``
  or the ``@noscc`` config suffix turns it off): a union-find over
  pointer nodes collapses strongly connected components of unfiltered
  copy edges into single representatives (:mod:`repro.pta.scc`),
  detection piggybacking on the stride gate.  Scheduling is
  *adaptive*: an up-front ranking pass decides the mode.  When it finds
  cycles the solve runs in the wave loop, so facts flow source-to-sink
  instead of churning around cycles.  When the static graph is acyclic
  the solver stays in the FIFO loop (seeded in the ranking's
  topological order) and only *probes* for cycles at stride gates
  whose window was not dominated by fresh-node creation
  (:class:`repro.pta.scc.AdaptiveGate`); a probe that finds cycles
  promotes the solve to wave mode.  With condensation off the solve
  runs the same FIFO loop with the ranking pass and the probe turned
  off.  Node-id-facing accessors resolve through ``find()``, so
  results, clients, and the MAHJONG automata stages see unchanged
  semantics.

* **Hierarchy-ordered object numbering**: object ids are pre-assigned
  by DFS pre-order over the type hierarchy (:mod:`repro.pta.numbering`),
  so every class's subtype set is one contiguous id range and
  cast-filter masks are O(1) range masks.  Context-sensitive heap
  clones and other mid-solve objects intern above the numbered block
  and are covered by the masks' watermark scatter.

* **Reference oracle.**  ``tests/reference_solver.py`` re-derives the
  same facts by naive chaotic iteration, sharing no code with this
  module, and ``tests/test_reference_solver.py`` compares the two
  fact for fact.

The solver is deliberately flow-insensitive (statement order in a method
body is irrelevant), matching the paper's setting.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro import faults as _faults
from repro.ir.program import Method, Program
from repro.obs.metrics import PerfRecorder
from repro.pta.numbering import HierarchyNumbering
from repro.pta.scc import AdaptiveGate, condense_copy_graph, resolve_scc
from repro.resources import TimeBudgetExceeded
from repro.ir.statements import (
    Cast,
    Catch,
    Copy,
    Invoke,
    Load,
    New,
    Return,
    StaticInvoke,
    StaticLoad,
    StaticStore,
    Store,
    Throw,
)
from repro.pta.bitset import RangeFilterMasks, bits_to_list, popcount
from repro.pta.context import (
    Context,
    ContextInsensitive,
    ContextSelector,
    EMPTY_CONTEXT,
    ReceiverInfo,
    wants_type_elements,
)
from repro.pta.heapmodel import AllocationSiteAbstraction, HeapModel

__all__ = [
    "Solver",
    "AnalysisTimeout",
    "solve",
    "ObjectDescriptor",
]

#: Worklist pops between wall-clock checks.  ``time.monotonic()`` per
#: pop is measurable overhead in the hot loop; a power-of-two stride
#: makes the gate a single AND.
TIMEOUT_CHECK_STRIDE = 1024

#: Ceiling (in grown stride gates) of the exponential backoff between
#: unproductive SCC detection passes — see ``Solver._maybe_collapse``.
_MAX_COLLAPSE_BACKOFF = 64

#: Wave priority of nodes created since the last detection pass: after
#: every ranked node (a detection pass never emits this many indices).
_FRESH_NODE_ORDER = 1 << 60


class AnalysisTimeout(TimeBudgetExceeded):
    """Raised when the wall-clock budget is exhausted mid-solve.

    Kept as a compatible subclass of the unified
    :class:`repro.resources.ResourceExhausted` taxonomy: legacy
    ``except AnalysisTimeout`` sites keep working, while the pipeline's
    degradation ladder catches the whole family at once.
    """

    def __init__(self, budget_seconds: float, iterations: int) -> None:
        super().__init__(
            f"points-to analysis exceeded {budget_seconds:.1f}s "
            f"after {iterations} worklist iterations",
            budget=budget_seconds, iterations=iterations,
        )
        self.budget_seconds = budget_seconds
        self.iterations = iterations


@dataclass(frozen=True)
class ObjectDescriptor:
    """User-facing description of an abstract object."""

    site_key: object
    heap_context: Context
    class_name: str

    def __str__(self) -> str:
        ctx = "" if not self.heap_context else f" @{self.heap_context}"
        return f"o{self.site_key}:{self.class_name}{ctx}"


class _MethodInfo:
    """Pre-indexed statements of one method (computed once, shared by all
    contexts the method is analyzed under)."""

    __slots__ = (
        "allocs", "copies", "casts", "static_loads", "static_stores",
        "static_invokes", "loads_by_base", "stores_by_base",
        "invokes_by_base", "return_vars", "throws", "catches",
    )

    def __init__(self, method: Method) -> None:
        self.allocs: List[New] = []
        self.copies: List[Copy] = []
        self.casts: List[Cast] = []
        self.static_loads: List[StaticLoad] = []
        self.static_stores: List[StaticStore] = []
        self.static_invokes: List[StaticInvoke] = []
        self.loads_by_base: Dict[str, List[Load]] = {}
        self.stores_by_base: Dict[str, List[Store]] = {}
        self.invokes_by_base: Dict[str, List[Invoke]] = {}
        self.return_vars: Tuple[str, ...] = ()
        self.throws: List[Throw] = []
        self.catches: List[Catch] = []
        returns: List[str] = []
        for stmt in method.statements:
            if isinstance(stmt, New):
                self.allocs.append(stmt)
            elif isinstance(stmt, Copy):
                self.copies.append(stmt)
            elif isinstance(stmt, Cast):
                self.casts.append(stmt)
            elif isinstance(stmt, StaticLoad):
                self.static_loads.append(stmt)
            elif isinstance(stmt, StaticStore):
                self.static_stores.append(stmt)
            elif isinstance(stmt, StaticInvoke):
                self.static_invokes.append(stmt)
            elif isinstance(stmt, Load):
                self.loads_by_base.setdefault(stmt.base, []).append(stmt)
            elif isinstance(stmt, Store):
                self.stores_by_base.setdefault(stmt.base, []).append(stmt)
            elif isinstance(stmt, Invoke):
                self.invokes_by_base.setdefault(stmt.base, []).append(stmt)
            elif isinstance(stmt, Return):
                returns.append(stmt.source)
            elif isinstance(stmt, Throw):
                self.throws.append(stmt)
            elif isinstance(stmt, Catch):
                self.catches.append(stmt)
        self.return_vars = tuple(returns)


class Solver:
    """One-shot points-to solve of a program.

    Construct, call :meth:`solve`, inspect the returned
    :class:`~repro.pta.results.PointsToResult`.

    ``perf`` optionally receives counters/timers/gauges
    (:class:`repro.obs.metrics.PerfRecorder`).

    ``governor`` optionally subjects the solve to a
    :class:`repro.analysis.governor.ResourceGovernor`: its
    :meth:`~repro.analysis.governor.ResourceGovernor.check` runs on the
    timeout stride with the live iteration/object/worklist counts, and
    may raise any :class:`~repro.resources.ResourceExhausted`.
    ``phase_label`` names the pipeline phase this solve belongs to
    (``"main"`` or ``"pre"``) for budget attribution and for filtering
    ``solve-iteration`` fault injection (:mod:`repro.faults`).

    ``scc`` switches constraint-graph condensation and wave scheduling
    (``None`` resolves through :func:`repro.pta.scc.resolve_scc`:
    explicit value → ``$REPRO_SCC`` → on).

    ``tracer`` optionally records the solve as spans
    (:class:`repro.obs.Tracer`): one ``solve`` span for the fixpoint,
    a contiguous chain of ``stride`` window spans rotated at the check
    gate (so the flame chart shows where the iterations went without
    per-pop cost — the hot loop pays exactly one ``is not None`` test
    per gate), and one ``scc:collapse`` span per cycle-elimination
    pass.
    """

    def __init__(
        self,
        program: Program,
        selector: Optional[ContextSelector] = None,
        heap_model: Optional[HeapModel] = None,
        timeout_seconds: Optional[float] = None,
        perf: Optional[PerfRecorder] = None,
        governor=None,
        phase_label: str = "main",
        scc: Optional[object] = None,
        tracer=None,
    ) -> None:
        if program.entry is None:
            raise ValueError("program has no entry method")
        self.program = program
        self.selector = selector if selector is not None else ContextInsensitive()
        self.heap_model = heap_model if heap_model is not None else AllocationSiteAbstraction()
        self.timeout_seconds = timeout_seconds
        self.governor = governor
        self.phase_label = phase_label
        self.use_scc = resolve_scc(scc)
        self.perf = perf
        self._type_elements = wants_type_elements(self.selector)
        self._ci = isinstance(self.selector, ContextInsensitive)
        hierarchy = program.hierarchy
        self._hierarchy = hierarchy

        # Name-level subtype test, memoized once per hierarchy (shared
        # with the other solve phases and the may-fail-cast client).
        self._is_subtype_name = hierarchy.is_subtype_names

        # --- interning tables ------------------------------------------
        # objects: (site_key, heap_ctx) -> id
        self._object_ids: Dict[Tuple[object, Context], int] = {}
        self._object_site_key: List[object] = []
        self._object_heap_ctx: List[Context] = []
        self._object_class: List[str] = []
        self._object_ctx_elem: List[object] = []
        self._object_alloc_sites: List[Set[int]] = []  # provenance
        # Materialized ids in intern order: reserved slots exist in the
        # parallel tables above before (or without) ever being
        # allocated, so "how many objects are there" is
        # ``len(_object_ids)`` and "which" is this list — not table
        # length / ``range``.
        self._live_objects: List[int] = []

        # Hierarchy-ordered numbering: reserve one id slot per distinct
        # context-insensitive site key, laid out so each class's subtype
        # set is a contiguous range (see repro.pta.numbering).  The
        # parallel tables are prefilled for the numbered block; a slot
        # only becomes live when its allocation is reached.
        numbered = HierarchyNumbering.build(program, self.heap_model)
        self._numbering = numbered
        key_class = numbered.key_class
        first_site = numbered.first_site
        for key in numbered.slot_keys:
            class_name = key_class[key]
            self._object_site_key.append(key)
            self._object_heap_ctx.append(EMPTY_CONTEXT)
            self._object_class.append(class_name)
            if self._type_elements:
                elem: object = self.heap_model.containing_class(
                    first_site[key], class_name, program
                )
            else:
                elem = key
            self._object_ctx_elem.append(elem)
            self._object_alloc_sites.append(set())

        # Cast-filter masks over object ids: O(1) range masks over the
        # numbered block with a watermark scatter for overflow ids.
        self._filter_masks = RangeFilterMasks(
            numbered.class_ranges, self._object_class,
            self._is_subtype_name, start=numbered.count,
        )

        # nodes: key -> id ; pts / succs indexed by id.  ``_pts[i]`` is
        # the node's points-to set as an int bit-vector.
        self._node_ids: Dict[object, int] = {}
        self._pts: List[int] = []
        self._succs: List[List[Tuple[int, Optional[str]]]] = []
        self._edge_seen: List[Set[Tuple[int, Optional[str]]]] = []
        # var-node metadata for statement processing: id -> (ctx, method)
        self._var_meta: Dict[int, Tuple[Context, Method, str]] = {}
        # same metadata as a node-indexed array (hot-loop form; the
        # dict stays the source of truth for results materialization)
        self._meta_by_node: List[Optional[Tuple[Context, Method, str]]] = []
        # exception-node metadata: node id -> (ctx, method)
        self._exc_meta: Dict[int, Tuple[Context, Method]] = {}

        self._method_info: Dict[int, _MethodInfo] = {}  # id(method) keyed
        self._reachable: Dict[int, Set[Context]] = {}   # id(method) -> ctxs
        self._reachable_methods: Set[str] = set()
        self._method_by_id: Dict[int, Method] = {}

        # call graph
        self._cg_edges_ctx: Set[Tuple[Context, int, Context, str]] = set()
        self._cg_edges_proj: Set[Tuple[int, str]] = set()
        self._virtual_sites_seen: Set[int] = set()
        self._static_sites_seen: Set[int] = set()

        # cast bookkeeping: (cast_site, class_name, source node id)
        self._cast_records: Set[Tuple[int, str, int]] = set()

        self._worklist: deque = deque()
        self.iterations = 0
        self.solve_seconds = 0.0
        self._stride_mask = TIMEOUT_CHECK_STRIDE - 1
        self._fault_plan = None
        self.tracer = tracer
        # current stride-window span id + counters at its start
        self._window_span: Optional[int] = None
        self._window_start_iter = 0
        self._window_start_facts = 0

        # --- constraint-graph condensation state -----------------------
        # Union-find over node ids: find(node) is the live representative
        # every accessor and edge operation resolves through.  With SCC
        # off no union ever happens, so find is the identity.  (Imported
        # here, not at module level: repro.core's package __init__ pulls
        # the automata stack, which imports repro.pta.results → this
        # module — a cycle at import time but not at construction time.)
        from repro.core.disjoint_sets import IntDisjointSets

        self._uf = IntDisjointSets()
        self._find = self._uf.find
        # Wave scheduling (SCC mode): per-representative merged pending
        # deltas plus a heap of (topo order, node) pop priorities.
        self._topo_order: List[int] = []
        self._pending: Dict[int, int] = {}
        self._heap: List[Tuple[int, int]] = []
        # Copy-edge watermark: a detection pass only runs on the stride
        # when the copy subgraph grew since the previous pass.  On top
        # of that, unproductive passes back off exponentially: a pass is
        # O(V+E), so on acyclic-but-growing graphs (deep context
        # sensitivity keeps adding copy edges that never close a cycle)
        # rescanning every gate would cost more than FIFO churn saves.
        self._copy_edges_at_last_pass = 0
        self._collapse_backoff = 1
        self._gates_until_pass = 1
        # Adaptive mode selection: every solve starts on the FIFO push;
        # the up-front ranking pass (or a later FIFO-mode probe that
        # finds cycles) switches to wave scheduling via
        # ``_enter_wave_mode``.  With SCC off neither ever happens.
        # The FIFO push coalesces pushes landing on an already-queued
        # node into its entry (``_fifo_queued``, a flat array over node
        # ids — grown in ``_node`` in lockstep with ``_pts``) — the same
        # merging the wave pending dict performs, kept in FIFO order.
        self._wave = False
        self._adaptive = AdaptiveGate() if self.use_scc else None
        self._fifo_queued: List[Optional[list]] = []
        self._push = self._push_fifo_coalesce

        # instrumentation: where the propagation work went
        self.counters: Dict[str, int] = {
            "copy_edges": 0,
            "filtered_edges": 0,
            "load_edges": 0,
            "store_edges": 0,
            "dispatch_attempts": 0,
            "facts_propagated": 0,
            "scc_passes": 0,
            "sccs_collapsed": 0,
            "scc_nodes_merged": 0,
            "scc_edges_dropped": 0,
            "propagations_saved": 0,
            "scc_passes_deferred": 0,
            "scc_promotions": 0,
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self):
        """Run to fixpoint and return a
        :class:`~repro.pta.results.PointsToResult`."""
        from repro.pta.results import PointsToResult

        start = time.monotonic()
        deadline = None
        if self.timeout_seconds is not None:
            deadline = start + self.timeout_seconds
        # Resolve the check cadence: the governor or an armed fault plan
        # may need checks more often than the default stride (e.g. every
        # pop in tests, where whole solves fit inside one 1024 window).
        plan = _faults.current_plan()
        stride = TIMEOUT_CHECK_STRIDE
        if self.governor is not None:
            stride = min(stride, self.governor.check_stride)
        if plan is not None and plan.stride is not None:
            stride = min(stride, plan.stride)
        self._stride_mask = stride - 1
        self._fault_plan = plan
        tracer = self.tracer
        solve_span = None
        if tracer is not None:
            solve_span = tracer.begin("solve", phase=self.phase_label,
                                      scc=self.use_scc)
        scope = (self.governor.ensure_phase(self.phase_label)
                 if self.governor is not None else nullcontext())
        self._add_reachable(EMPTY_CONTEXT, self.program.entry)
        try:
            with scope:
                if tracer is not None:
                    self._begin_window()
                if self.use_scc:
                    # Rank the statically-known topology (and collapse
                    # any cycles already present) before the first pop;
                    # the pass doubles as the mode decision.  Cycles →
                    # wave scheduling pays for itself.  Acyclic → stay
                    # on the FIFO loop (drained in the ranking's
                    # topological order) and probe at stride gates.
                    self._collapse_cycles()
                    self._adaptive.reset_baseline(len(self._pts))
                    if self.counters["sccs_collapsed"]:
                        self._enter_wave_mode()
                    else:
                        self._sort_worklist_topologically()
                if not self._wave:
                    self._run_fifo(deadline)
                    if self._worklist:
                        # The FIFO loop stopped early because a probe
                        # found cycles: switch the remaining worklist to
                        # wave order, collapse, and resume in the wave
                        # loop.
                        self._enter_wave_mode()
                        self._collapse_cycles()
                if self._wave:
                    self._run_wave(deadline)
        finally:
            self.solve_seconds = time.monotonic() - start
            self._record_perf()
            if tracer is not None:
                tracer.instant("masks", **self._filter_masks.stats())
                self._close_window(
                    len(self._pending) if self._wave
                    else len(self._worklist))
                tracer.end(solve_span, iterations=self.iterations,
                           seconds=round(self.solve_seconds, 6))
        return PointsToResult(self)

    def _enter_wave_mode(self) -> None:
        """Switch from FIFO scheduling to condensation-ordered waves.

        Rebinds the push to the wave variant and drains the FIFO deque
        into per-node pending deltas (resolving each node through
        ``find()``, so entries queued against nodes that were merged
        into a representative land on the representative).  Safe at any
        point: pending merging only coalesces worklist entries a FIFO
        solver would have popped separately.
        """
        self._wave = True
        self._push = self._push_wave
        worklist = self._worklist
        push = self._push
        while worklist:
            node, delta = worklist.popleft()
            if delta:
                push(node, delta)
        self._fifo_queued.clear()

    def _sort_worklist_topologically(self) -> None:
        """Reorder the seed worklist by the up-front ranking (stable, so
        equal ranks keep push order).  On acyclic graphs topological
        order is the provably good propagation order; this hands the
        FIFO loop that order for the statically-known graph without any
        per-pop heap cost."""
        worklist = self._worklist
        if len(worklist) > 1:
            topo = self._topo_order
            self._worklist = deque(
                sorted(worklist, key=lambda entry: topo[entry[0]]))

    # ------------------------------------------------------------------
    # Stride-window tracing (tracer present only; never on the per-pop
    # hot path — rotation happens at the existing check gate)
    # ------------------------------------------------------------------
    def _begin_window(self) -> None:
        """Open the first ``stride`` window span."""
        self._window_start_iter = self.iterations
        self._window_start_facts = 0
        self._window_span = self.tracer.begin("stride")

    def _rotate_window(self, iterations: int, worklist: int,
                       facts: int) -> None:
        """Close the current ``stride`` window with its counters and
        open the next one, keeping the chain contiguous under
        ``solve``."""
        tracer = self.tracer
        tracer.end(
            self._window_span,
            iterations=iterations - self._window_start_iter,
            worklist=worklist,
            facts=facts - self._window_start_facts,
        )
        self._window_start_iter = iterations
        self._window_start_facts = facts
        self._window_span = tracer.begin("stride")

    def _close_window(self, worklist: int) -> None:
        """Close the trailing window at solve end — including when an
        exhaustion is escaping, so the flame chart shows the window
        that burned the budget."""
        if self._window_span is None:
            return
        self.tracer.end(
            self._window_span,
            iterations=self.iterations - self._window_start_iter,
            worklist=worklist,
            facts=self.counters["facts_propagated"] - self._window_start_facts,
        )
        self._window_span = None

    def _stride_gate(self, deadline: Optional[float], iterations: int,
                     worklist: int, facts: Optional[int] = None) -> None:
        """The budget checks both loops run every ``stride`` pops (and
        once on entry, so an already-expired budget raises even if the
        solve would finish within one stride): wall-clock deadline,
        governor, and armed fault plan.  With ``facts`` given (a gate
        inside the loop) the trace's ``stride`` window rotates too."""
        if deadline is not None and time.monotonic() > deadline:
            raise AnalysisTimeout(self.timeout_seconds, iterations)
        if self.governor is not None:
            self.governor.check(iterations=iterations,
                                objects=len(self._object_ids),
                                worklist=worklist)
        if self._fault_plan is not None:
            self._fault_plan.check_iteration(iterations, self.phase_label)
        if facts is not None and self.tracer is not None:
            self._rotate_window(iterations, worklist, facts)

    def _run_fifo(self, deadline: Optional[float]) -> None:
        """FIFO fixpoint loop with delta coalescing.

        Points-to sets are ints: the surviving delta is ``delta &
        ~known`` and cast filters are mask ANDs.  Worklist entries are
        mutable ``[node, delta]`` pairs (see :meth:`_push_fifo_coalesce`):
        pushes landing on a queued node merge into its entry (counted as
        ``propagations_saved``), so the node is popped once with the
        union instead of once per push — the merging the wave loop's
        pending dict performs, without the heap.  With SCC on, the
        stride gate also probes for cycles (:meth:`_fifo_probe`) and
        breaks out so :meth:`solve` can promote to the wave loop.
        """
        worklist = self._worklist
        pop = worklist.popleft
        append = worklist.append
        queued = self._fifo_queued
        pts = self._pts
        succs = self._succs
        meta_by_node = self._meta_by_node
        mask_for = self._filter_masks.mask_for
        gate = self._stride_gate
        stride_mask = self._stride_mask
        probe = self._fifo_probe if self.use_scc else None
        iterations = self.iterations
        facts = 0
        saved = 0
        gate(deadline, iterations, len(worklist))
        try:
            while worklist:
                iterations += 1
                if not iterations & stride_mask:
                    gate(deadline, iterations, len(worklist), facts)
                    if probe is not None and probe():
                        break
                entry = pop()
                node = entry[0]
                delta = entry[1]
                # consume: later pushes to this node re-queue it
                entry[1] = 0
                known = pts[node]
                # delta & ~known, without materializing the full-width
                # complement: XOR out the already-known bits.
                common = delta & known
                if common:
                    delta ^= common
                    if not delta:
                        continue
                pts[node] = known | delta
                facts += popcount(delta)
                for succ, filter_class in succs[node]:
                    if filter_class is not None:
                        filtered = delta & mask_for(filter_class)
                        if not filtered:
                            continue
                    else:
                        filtered = delta
                    e = queued[succ]
                    if e is not None and e[1]:
                        e[1] |= filtered
                        saved += 1
                    else:
                        e = [succ, filtered]
                        queued[succ] = e
                        append(e)
                meta = meta_by_node[node]
                if meta is not None:
                    self._process_var_delta(meta, delta)
        finally:
            self.iterations = iterations
            self.counters["facts_propagated"] += facts
            self.counters["propagations_saved"] += saved

    def _push_fifo_coalesce(self, node: int, delta: int) -> None:
        """FIFO push with wave-style delta merging.

        Worklist entries are mutable ``[node, delta]`` pairs indexed by
        ``_fifo_queued``; a push landing on a node whose entry is still
        unconsumed folds into it instead of appending another.  The
        loop zeroes an entry's delta on pop, so later pushes re-queue
        the node at the tail — plain FIFO order, strictly fewer pops.
        """
        queued = self._fifo_queued
        entry = queued[node]
        if entry is not None and entry[1]:
            entry[1] |= delta
            self.counters["propagations_saved"] += 1
            return
        entry = [node, delta]
        queued[node] = entry
        self._worklist.append(entry)

    # ------------------------------------------------------------------
    # Wave-scheduled fixpoint loop (SCC mode)
    # ------------------------------------------------------------------
    def _push_wave(self, node: int, delta: int) -> None:
        """Merge ``delta`` into the node's pending wave.

        Pushes that land on a node with a pending delta are absorbed
        into it — exactly the worklist entries a FIFO solver would have
        popped separately, hence the ``propagations_saved`` counter.
        """
        parent = self._uf.parent
        if parent[node] != node:
            node = self._find(node)
        pending = self._pending
        current = pending.get(node)
        if current is None:
            pending[node] = delta
            heappush(self._heap, (self._topo_order[node], node))
        else:
            pending[node] = current | delta
            self.counters["propagations_saved"] += 1

    def _run_wave(self, deadline: Optional[float]) -> None:
        """Fixpoint loop in condensation + wave order.

        Same delta algebra as :meth:`_run_fifo`; differences are (a)
        pops come from a priority heap keyed by the condensation's
        topological order with per-node pending-delta merging, and (b)
        the stride gate additionally runs online cycle detection.
        Every heap pop — including stale entries whose node was merged
        away or whose pending was already drained — counts as one
        iteration, so governor work budgets and fault-injection strides
        see the same monotone iteration clock as the FIFO loop.
        """
        pending = self._pending
        heap = self._heap
        pts = self._pts
        succs = self._succs
        meta_by_node = self._meta_by_node
        mask_for = self._filter_masks.mask_for
        gate = self._stride_gate
        stride_mask = self._stride_mask
        push = self._push
        find = self._find
        parent = self._uf.parent
        iterations = self.iterations
        facts = 0
        gate(deadline, iterations, len(pending))
        try:
            while heap:
                iterations += 1
                if not iterations & stride_mask:
                    gate(deadline, iterations, len(pending), facts)
                    self._maybe_collapse()
                node = heappop(heap)[1]
                if parent[node] != node:
                    node = find(node)
                delta = pending.pop(node, 0)
                if not delta:
                    continue
                known = pts[node]
                common = delta & known
                if common:
                    delta ^= common
                    if not delta:
                        continue
                pts[node] = known | delta
                facts += popcount(delta)
                for succ, filter_class in succs[node]:
                    if filter_class is None:
                        push(succ, delta)
                    else:
                        filtered = delta & mask_for(filter_class)
                        if filtered:
                            push(succ, filtered)
                meta = meta_by_node[node]
                if meta is not None:
                    if type(meta) is list:
                        for entry in meta:
                            self._process_var_delta(entry, delta)
                    else:
                        self._process_var_delta(meta, delta)
        finally:
            self.iterations = iterations
            self.counters["facts_propagated"] += facts

    # ------------------------------------------------------------------
    # Online cycle elimination
    # ------------------------------------------------------------------
    def _pass_due(self) -> bool:
        """The dampers shared by :meth:`_maybe_collapse` and
        :meth:`_fifo_probe`: whether this stride gate should run a
        detection pass (which is O(V+E)).

        A pass only runs when the copy subgraph grew since the previous
        one.  Creation-dominated windows defer detection outright (the
        graph is growing faster than facts settle, so a ranking would
        be stale on arrival — :class:`repro.pta.scc.AdaptiveGate`), and
        unproductive passes double the number of grown gates skipped
        before the next one (capped at ``_MAX_COLLAPSE_BACKOFF``; see
        :meth:`_backoff`).  Both only defer an optimization — collapse
        never affects the fixpoint — so correctness is untouched.
        """
        dominated = self._adaptive.creation_dominated(
            self._stride_mask + 1, len(self._pts))
        if self.counters["copy_edges"] == self._copy_edges_at_last_pass:
            return False
        if dominated:
            self.counters["scc_passes_deferred"] += 1
            return False
        self._gates_until_pass -= 1
        return self._gates_until_pass <= 0

    def _backoff(self, productive: bool) -> None:
        """Finding a cycle resets the detection cadence to every grown
        gate; an unproductive pass doubles the gap."""
        if productive:
            self._collapse_backoff = 1
        else:
            self._collapse_backoff = min(self._collapse_backoff * 2,
                                         _MAX_COLLAPSE_BACKOFF)
        self._gates_until_pass = self._collapse_backoff

    def _maybe_collapse(self) -> None:
        """Stride-gate hook of the wave loop: collapse cycles when a
        pass is due (:meth:`_pass_due`)."""
        if not self._pass_due():
            return
        collapsed_before = self.counters["sccs_collapsed"]
        self._collapse_cycles()
        self._backoff(self.counters["sccs_collapsed"] > collapsed_before)

    def _fifo_probe(self) -> bool:
        """Stride-gate hook of the FIFO (acyclic) SCC mode: a read-only
        detection probe when a pass is due (:meth:`_pass_due`).

        Returns True exactly when cycles were found — the FIFO loop
        then breaks and :meth:`solve` promotes to wave scheduling
        (draining the remaining worklist into pending deltas and
        running the collapse for real).  A fruitless probe costs one
        Tarjan pass and backs off exponentially; a deferred or
        watermark-skipped gate costs a few integer ops.
        """
        if not self._pass_due():
            return False
        self._copy_edges_at_last_pass = self.counters["copy_edges"]
        self.counters["scc_passes"] += 1
        cycles, _ = condense_copy_graph(self._succs, self._uf,
                                        tracer=self.tracer)
        self._backoff(bool(cycles))
        if not cycles:
            return False
        # Cycles formed mid-solve: promote.  The promotion re-runs the
        # pass inside _collapse_cycles (at most once per solve), which
        # also refreshes the wave priorities.
        self.counters["scc_promotions"] += 1
        return True

    def _collapse_cycles(self) -> None:
        """Run one cycle-elimination pass, traced as ``scc:collapse``
        when a tracer is attached (pass stats land as end attributes)."""
        tracer = self.tracer
        if tracer is None:
            self._collapse_cycles_impl()
            return
        counters = self.counters
        with tracer.span("scc:collapse") as attrs:
            before = counters["sccs_collapsed"]
            merged_before = counters["scc_nodes_merged"]
            self._collapse_cycles_impl()
            attrs["collapsed"] = counters["sccs_collapsed"] - before
            attrs["nodes_merged"] = counters["scc_nodes_merged"] - merged_before

    def _collapse_cycles_impl(self) -> None:
        """Detect copy-edge SCCs, collapse each into one representative,
        and refresh the wave priorities.

        For every multi-member component: the members' points-to sets,
        pending deltas, successor edges, and statement metadata merge
        into the union-find root; intra-component edges drop (they are
        trivially satisfied once the members share one set); and the
        merged set is *reseeded* as a fresh pending delta with the
        representative's set cleared, so statement processing and the
        merged successor list observe every object any member knew —
        members may have diverged mid-propagation, and the reseed is
        what restores the invariant that a node's meta has seen exactly
        ``pts(node)``.  Deduplication in ``_add_edge``, the call-graph
        edge set, and delta subsumption make the replay idempotent.
        """
        self._copy_edges_at_last_pass = self.counters["copy_edges"]
        counters = self.counters
        counters["scc_passes"] += 1
        uf = self._uf
        find = self._find
        cycles, order = condense_copy_graph(self._succs, uf,
                                            tracer=self.tracer)
        topo = self._topo_order
        for node, position in order.items():
            topo[node] = position
        if not cycles:
            return
        pending = self._pending
        pts = self._pts
        succs = self._succs
        edge_seen = self._edge_seen
        meta_by_node = self._meta_by_node
        for members in cycles:
            # Union first so `find` resolves intra-pass merges (of this
            # and every other component) while edges are rewritten.
            root = members[0]
            for member in members[1:]:
                root = uf.union(root, member)
            counters["sccs_collapsed"] += 1
            counters["scc_nodes_merged"] += len(members) - 1
        for members in cycles:
            root = find(members[0])
            merged = 0
            metas: List[Tuple[Context, Method, str]] = []
            merged_succs: List[Tuple[int, Optional[str]]] = []
            merged_seen: Set[Tuple[int, Optional[str]]] = set()
            for member in members:
                known = pts[member]
                if known:
                    merged |= known
                queued = pending.pop(member, None)
                if queued:
                    merged |= queued
                meta = meta_by_node[member]
                if meta is not None:
                    if type(meta) is list:
                        metas.extend(meta)
                    else:
                        metas.append(meta)
                for target, filter_class in succs[member]:
                    resolved = find(target)
                    if resolved == root:
                        counters["scc_edges_dropped"] += 1
                        continue
                    edge = (resolved, filter_class)
                    if edge not in merged_seen:
                        merged_seen.add(edge)
                        merged_succs.append(edge)
                pts[member] = 0
                succs[member] = []
                edge_seen[member] = set()
                meta_by_node[member] = None
            succs[root] = merged_succs
            edge_seen[root] = merged_seen
            if metas:
                meta_by_node[root] = metas if len(metas) > 1 else metas[0]
            if merged:
                pending[root] = merged
                heappush(self._heap, (topo[root], root))
        # Re-point surviving edges (and their dedup sets) of every live
        # node at the new representatives, dropping duplicates — keeps
        # later `_add_edge` dedup exact and pops from chasing stale ids.
        parent = uf.parent
        for node in range(len(succs)):
            if parent[node] != node:
                continue
            out = succs[node]
            if not out:
                continue
            rewritten: List[Tuple[int, Optional[str]]] = []
            seen: Set[Tuple[int, Optional[str]]] = set()
            changed = False
            for target, filter_class in out:
                resolved = target if parent[target] == target else find(target)
                if resolved != target:
                    changed = True
                if resolved == node:
                    counters["scc_edges_dropped"] += 1
                    changed = True
                    continue
                edge = (resolved, filter_class)
                if edge in seen:
                    changed = True
                    continue
                seen.add(edge)
                rewritten.append(edge)
            if changed:
                succs[node] = rewritten
                edge_seen[node] = seen

    def _record_perf(self) -> None:
        perf = self.perf
        if perf is None:
            return
        perf.add_time("pta.solve", self.solve_seconds)
        perf.incr("pta.iterations", self.iterations)
        for name, value in self.counters.items():
            perf.incr(f"pta.{name}", value)
        perf.gauge_max("pta.nodes", len(self._pts))
        perf.gauge_max("pta.objects", len(self._object_ids))
        perf.gauge_max("pta.numbered_slots", self._numbering.count)
        if self._pts:
            perf.gauge_max("pta.pts_size", max(map(popcount, self._pts)))
        for name, value in self._filter_masks.stats().items():
            perf.incr(f"pta.{name}", value)
        perf.add_time("pta.mask_build", self._filter_masks.build_seconds)

    # ------------------------------------------------------------------
    # Points-to accessors (used by results)
    # ------------------------------------------------------------------
    def node_pts_bits(self, node: int) -> int:
        """The node's points-to set as a bit-vector.

        Node ids resolve through the condensation's ``find()`` — a node
        merged into a cycle representative reports the representative's
        set, which is exactly the member's fixpoint set.
        """
        return self._pts[self._find(node)]

    def node_pts_ids(self, node: int) -> List[int]:
        """The node's points-to set as a list of object ids."""
        return bits_to_list(self._pts[self._find(node)])

    def node_pts_count(self, node: int) -> int:
        return popcount(self._pts[self._find(node)])

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _node(self, key: object) -> int:
        node = self._node_ids.get(key)
        if node is None:
            node = len(self._pts)
            self._node_ids[key] = node
            self._pts.append(0)
            self._succs.append([])
            self._edge_seen.append(set())
            self._meta_by_node.append(None)
            self._fifo_queued.append(None)
            self._uf.add()
            # Until the next detection pass ranks them, new nodes pop
            # *after* everything already ordered (they are created by
            # freshly propagated facts, so they sit downstream of the
            # known topology); ties fall back to creation order.
            self._topo_order.append(_FRESH_NODE_ORDER)
        return node

    def _var_node(self, ctx: Context, method: Method, var: str) -> int:
        key = (0, ctx, id(method), var)
        node = self._node_ids.get(key)
        if node is None:
            node = self._node(key)
            meta = (ctx, method, var)
            self._var_meta[node] = meta
            self._meta_by_node[node] = meta
        return node

    def _exception_node(self, ctx: Context, method: Method) -> int:
        """The method's exceptional-exit variable: thrown objects land
        here and propagate to callers' exception nodes along call edges
        (the flow-insensitive exceptional flow Doop models)."""
        key = (3, ctx, id(method))
        node = self._node_ids.get(key)
        if node is None:
            node = self._node(key)
            self._exc_meta[node] = (ctx, method)
        return node

    def _field_node(self, obj: int, field: str) -> int:
        return self._node((1, obj, field))

    def _static_field_node(self, class_name: str, field: str) -> int:
        return self._node((2, class_name, field))

    def _object(self, site: int, class_name: str, method_ctx: Context) -> int:
        """Intern the abstract object for an allocation."""
        heap_model = self.heap_model
        key = heap_model.site_key(site, class_name)
        if self._ci or heap_model.is_merged(site, class_name):
            hctx: Context = EMPTY_CONTEXT
        else:
            hctx = self.selector.select_heap(method_ctx, site)
        obj = self._object_ids.get((key, hctx))
        if obj is None:
            slot = None if hctx else self._numbering.slots.get(key)
            if slot is not None:
                # Numbered fast path: the id and its metadata were
                # reserved at construction; materialize the slot.
                obj = slot
                self._object_ids[(key, hctx)] = obj
            else:
                # Discovery-order path — also the overflow space above
                # the numbered block (context-sensitive heap clones,
                # classes outside the hierarchy).
                obj = len(self._object_site_key)
                self._object_ids[(key, hctx)] = obj
                self._object_site_key.append(key)
                self._object_heap_ctx.append(hctx)
                self._object_class.append(class_name)
                if self._type_elements:
                    # type-sensitivity: the class containing the
                    # allocation site (of the representative, for
                    # merged objects)
                    elem: object = heap_model.containing_class(
                        site, class_name, self.program
                    )
                else:
                    # object-sensitivity: the allocation site key — for
                    # merged objects this is the representative's site,
                    # which is Section 3.6.1's context-element
                    # replacement rule
                    elem = key
                self._object_ctx_elem.append(elem)
                self._object_alloc_sites.append(set())
            self._live_objects.append(obj)
        self._object_alloc_sites[obj].add(site)
        return obj

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def _add_reachable(self, ctx: Context, method: Method) -> None:
        mkey = id(method)
        contexts = self._reachable.get(mkey)
        if contexts is None:
            contexts = set()
            self._reachable[mkey] = contexts
            self._method_info[mkey] = _MethodInfo(method)
            self._method_by_id[mkey] = method
            self._reachable_methods.add(method.qualified_name)
        if ctx in contexts:
            return
        contexts.add(ctx)
        info = self._method_info[mkey]
        for stmt in info.allocs:
            obj = self._object(stmt.site, stmt.class_name, ctx)
            self._push(self._var_node(ctx, method, stmt.target), 1 << obj)
        for stmt in info.copies:
            self._add_edge(
                self._var_node(ctx, method, stmt.source),
                self._var_node(ctx, method, stmt.target),
            )
        for stmt in info.casts:
            src = self._var_node(ctx, method, stmt.source)
            self._add_edge(
                src, self._var_node(ctx, method, stmt.target), stmt.class_name
            )
            self._cast_records.add((stmt.cast_site, stmt.class_name, src))
        for stmt in info.static_loads:
            self._add_edge(
                self._static_field_node(stmt.class_name, stmt.field_name),
                self._var_node(ctx, method, stmt.target),
            )
        for stmt in info.static_stores:
            self._add_edge(
                self._var_node(ctx, method, stmt.source),
                self._static_field_node(stmt.class_name, stmt.field_name),
            )
        for stmt in info.throws:
            self._add_edge(
                self._var_node(ctx, method, stmt.source),
                self._exception_node(ctx, method),
            )
        for stmt in info.catches:
            self._add_edge(
                self._exception_node(ctx, method),
                self._var_node(ctx, method, stmt.target),
                stmt.class_name,
            )
        for stmt in info.static_invokes:
            self._process_static_invoke(ctx, method, stmt)
        # Register reachable virtual call sites even before (or without)
        # any receiver object arriving — a site whose receiver set stays
        # empty is an *unresolved* dispatch, which the devirtualization
        # client reports separately from mono/poly.
        for invokes in info.invokes_by_base.values():
            for stmt in invokes:
                self._virtual_sites_seen.add(stmt.call_site)

    # ------------------------------------------------------------------
    # Edges and statement processing
    # ------------------------------------------------------------------
    def _add_edge(self, source: int, target: int,
                  filter_class: Optional[str] = None) -> None:
        if self._wave:
            # Unions only ever happen in wave mode; FIFO-mode SCC (the
            # adaptive acyclic path) skips the resolution entirely so
            # its edge path is byte-for-byte the scc=off one.
            parent = self._uf.parent
            if parent[source] != source:
                source = self._find(source)
            if parent[target] != target:
                target = self._find(target)
            if source == target:
                # Self-loop on a representative: trivially satisfied
                # whether filtered or not (``pts ⊇ filter(pts)``).
                self.counters["scc_edges_dropped"] += 1
                return
        edge = (target, filter_class)
        seen = self._edge_seen[source]
        if edge in seen:
            return
        seen.add(edge)
        if filter_class is None:
            self.counters["copy_edges"] += 1
        else:
            self.counters["filtered_edges"] += 1
        self._succs[source].append(edge)
        existing = self._pts[source]
        if existing:
            if filter_class is not None:
                existing &= self._filter_masks.mask_for(filter_class)
            if existing:
                # bit-vectors are immutable: push the set as-is
                self._push(target, existing)

    def _process_var_delta(self, meta: Tuple[Context, Method, str],
                           delta: int) -> None:
        ctx, method, var = meta
        info = self._method_info[id(method)]
        loads = info.loads_by_base.get(var)
        stores = info.stores_by_base.get(var)
        invokes = info.invokes_by_base.get(var)
        if loads is None and stores is None and invokes is None:
            return
        objs = bits_to_list(delta)
        if loads:
            for stmt in loads:
                target = self._var_node(ctx, method, stmt.target)
                for obj in objs:
                    self.counters["load_edges"] += 1
                    self._add_edge(self._field_node(obj, stmt.field_name), target)
        if stores:
            for stmt in stores:
                source = self._var_node(ctx, method, stmt.source)
                for obj in objs:
                    self.counters["store_edges"] += 1
                    self._add_edge(source, self._field_node(obj, stmt.field_name))
        if invokes:
            for stmt in invokes:
                for obj in objs:
                    self._process_virtual_dispatch(ctx, method, stmt, obj)

    def _process_virtual_dispatch(self, ctx: Context, caller: Method,
                                  stmt: Invoke, obj: int) -> None:
        self.counters["dispatch_attempts"] += 1
        self._virtual_sites_seen.add(stmt.call_site)
        callee = self.program.dispatch(self._object_class[obj], stmt.method_name)
        if callee is None or len(callee.params) != len(stmt.args):
            return
        receiver = ReceiverInfo(
            obj, self._object_heap_ctx[obj], self._object_ctx_elem[obj]
        )
        callee_ctx = self.selector.select_virtual(
            ctx, stmt.call_site, receiver, callee.qualified_name
        )
        # `this` receives exactly this object, unconditionally (cheap,
        # dedups in propagate).
        self._push(self._var_node(callee_ctx, callee, "this"), 1 << obj)
        edge = (ctx, stmt.call_site, callee_ctx, callee.qualified_name)
        if edge in self._cg_edges_ctx:
            return
        self._cg_edges_ctx.add(edge)
        self._cg_edges_proj.add((stmt.call_site, callee.qualified_name))
        self._add_reachable(callee_ctx, callee)
        self._link_call(ctx, caller, stmt.target, stmt.args, callee_ctx, callee)

    def _process_static_invoke(self, ctx: Context, caller: Method,
                               stmt: StaticInvoke) -> None:
        self._static_sites_seen.add(stmt.call_site)
        callee = self.program.static_method(stmt.class_name, stmt.method_name)
        if callee is None or len(callee.params) != len(stmt.args):
            return
        callee_ctx = self.selector.select_static(
            ctx, stmt.call_site, callee.qualified_name
        )
        edge = (ctx, stmt.call_site, callee_ctx, callee.qualified_name)
        if edge in self._cg_edges_ctx:
            return
        self._cg_edges_ctx.add(edge)
        self._cg_edges_proj.add((stmt.call_site, callee.qualified_name))
        self._add_reachable(callee_ctx, callee)
        self._link_call(ctx, caller, stmt.target, stmt.args, callee_ctx, callee)

    def _link_call(self, ctx: Context, caller: Method, target: Optional[str],
                   args: Tuple[str, ...], callee_ctx: Context,
                   callee: Method) -> None:
        info = self._method_info.get(id(callee))
        return_vars = info.return_vars if info else callee.return_var_names
        for arg, param in zip(args, callee.params):
            self._add_edge(
                self._var_node(ctx, caller, arg),
                self._var_node(callee_ctx, callee, param),
            )
        if target is not None:
            target_node = self._var_node(ctx, caller, target)
            for ret in return_vars:
                self._add_edge(self._var_node(callee_ctx, callee, ret), target_node)
        # exceptional flow: whatever escapes the callee reaches the
        # caller's exceptional exit
        self._add_edge(
            self._exception_node(callee_ctx, callee),
            self._exception_node(ctx, caller),
        )


def solve(program: Program, selector: Optional[ContextSelector] = None,
          heap_model: Optional[HeapModel] = None,
          timeout_seconds: Optional[float] = None,
          perf: Optional[PerfRecorder] = None,
          governor=None, phase_label: str = "main",
          scc: Optional[object] = None, tracer=None):
    """Convenience wrapper: build a :class:`Solver` and run it."""
    return Solver(program, selector, heap_model, timeout_seconds,
                  perf=perf, governor=governor, phase_label=phase_label,
                  scc=scc, tracer=tracer).solve()

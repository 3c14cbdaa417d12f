"""Context-sensitive, field-sensitive Andersen-style points-to solver.

This is the "allocation-site-based points-to analysis" substrate of the
paper: the same algorithmic family Doop implements, as an explicit
worklist propagation with on-the-fly call-graph construction.

Design:

* **Nodes** are integers indexing flat per-node lists (points-to set,
  successor edges, statement metadata, pending delta).  A node is one of

  - a variable node ``(context, method, var)``: the first time a solve
    reaches ``method`` under ``context`` it reserves the method's
    *frame*, one contiguous block of node ids with a slot per variable
    (plus the exceptional exit when the method may throw), so variable
    ``slot`` is node ``base + slot`` and nothing is hashed per
    variable.  The slot table
    (``_FrameLayout``: variable names, statements rewritten over
    slots) is built once per method and cached on the
    :class:`~repro.ir.program.Program`, shared by every solve of it;
  - an instance field node ``(abstract object, field)``,
  - a static field node ``(class, field)``, both interned by key.

  Every active variable node of a frame references the frame's one
  shared record, and a node without edges shares one empty successor
  tuple, so per-node state holds almost no objects the cyclic garbage
  collector has to track.

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

* **Two fixpoint loops.**  The FIFO loop's worklist is a deque of node
  ids with the queued deltas in a flat int list beside it; a push that
  lands on a still-queued node ORs into its waiting delta, so the node
  is popped once with the union.  The wave loop pops per-node pending
  deltas in the constraint graph's topological order, and nodes no
  ranking has placed yet after every ranked one, in push order.  Both
  share one stride gate (governor, fault plan, trace windows) that
  runs every 1024 pops, or every pop while a fault plan is active.

* **Constraint-graph condensation** (always on): a union-find over
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
  promotes the solve to wave mode.  Node-id-facing accessors resolve
  through ``find()``, so results, clients, and the MAHJONG automata
  stages see unchanged semantics.

* **Hierarchy-ordered object numbering**: object ids are pre-assigned
  by DFS pre-order over the type hierarchy (:mod:`repro.pta.numbering`),
  so every class's subtype set is one contiguous id range and
  cast-filter masks are O(1) range masks.  Context-sensitive heap
  clones and other mid-solve objects intern above the numbered block
  and are covered by the masks' watermark scatter.

* **Two dispatch paths.**  When the selector ignores the receiver
  (:func:`~repro.pta.context.ignores_receiver`: ci, k-call-site, and
  introspective over either), a virtual call site dispatches once per
  receiver *class*: each class's own numbered objects are one
  contiguous id block (``HierarchyNumbering.own_end``), so the delta
  splits into class slices, each pushed to ``this`` and linked once.
  Object-sensitive selectors, and overflow ids, dispatch once per
  receiver object; type-sensitive selectors once per group of
  receivers sharing a receiver key (class, heap context, context
  element).  When the callee context also ignores the caller
  (:func:`~repro.pta.context.ignores_caller`: ci, k-obj, k-type and
  introspective over any of them), the callee frame is memoized per
  solve by (receiver key, method name, arity), so each key is resolved
  and context-selected once however many sites and attempts reach it.
  Every path pops the same nodes and derives the same facts;
  ``dispatch_attempts`` counts slices, groups or objects.

* **Exceptional flow where it can happen.**  Only the frames of
  methods in :meth:`~repro.ir.program.Program.may_throw_methods` have
  an exceptional-exit node; call edges link the callee's exit to the
  caller's, and ``catch`` reads a method's own exit, only there.  The
  other methods' exits could never hold an object, so they are not
  created (no per-node state, nothing for the ranking pass to probe).

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
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro import faults as _faults
from repro.ir.program import Method, Program
from repro.pta.numbering import HierarchyNumbering
from repro.pta.scc import AdaptiveGate, condense_copy_graph
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
    ignores_caller,
    ignores_receiver,
    wants_type_elements,
)
from repro.pta.heapmodel import AllocationSiteAbstraction, HeapModel

__all__ = [
    "Solver",
    "solve",
    "ObjectDescriptor",
]

#: Worklist pops between budget checks.  A governor check per pop is
#: measurable overhead in the hot loop; a power-of-two stride makes the
#: gate a single AND.
CHECK_STRIDE = 1024

#: Ceiling (in grown stride gates) of the exponential backoff between
#: unproductive SCC detection passes — see ``Solver._maybe_collapse``.
_MAX_COLLAPSE_BACKOFF = 64

#: Wave priority of nodes no detection pass has ranked yet: after every
#: ranked node (a detection pass never emits this many indices).  Among
#: themselves they pop in push order (``Solver._push_wave``).
_FRESH_NODE_ORDER = 1 << 60


@dataclass(frozen=True)
class ObjectDescriptor:
    """User-facing description of an abstract object."""

    site_key: object
    heap_context: Context
    class_name: str

    def __str__(self) -> str:
        ctx = "" if not self.heap_context else f" @{self.heap_context}"
        return f"o{self.site_key}:{self.class_name}{ctx}"


#: A callee-memo miss (``None`` in the memo is a cached failed dispatch).
_UNRESOLVED = object()

#: ``succs[node]`` of a node without outgoing edges: one shared empty
#: tuple, replaced by a list on the node's first edge.
_NO_EDGES: Tuple[Tuple[int, Optional[str]], ...] = ()

#: A call in a frame layout: the statement, the slot of its result
#: variable (``None`` when the result is dropped) and its argument slots.
_Call = Tuple[object, Optional[int], Tuple[int, ...]]


#: Statement kinds of a frame layout, by exact statement class.  The
#: kinds from ``_LOAD`` on hang their metadata on a base variable's
#: slot.  ``AssignNull`` has no kind: it derives no fact, so its target
#: gets no slot from it.
(_NEW, _COPY, _CAST, _RETURN, _STATIC_LOAD, _STATIC_STORE, _THROW, _CATCH,
 _STATIC_INVOKE, _LOAD, _STORE, _INVOKE) = range(12)
_STATEMENT_KIND = {
    New: _NEW, Copy: _COPY, Cast: _CAST, Return: _RETURN,
    StaticLoad: _STATIC_LOAD, StaticStore: _STATIC_STORE, Throw: _THROW,
    Catch: _CATCH, StaticInvoke: _STATIC_INVOKE, Load: _LOAD,
    Store: _STORE, Invoke: _INVOKE,
}


def _call(stmt, slots: Dict[str, int]) -> _Call:
    """A call's layout entry; its result variable takes a slot before
    its arguments do."""
    slot = slots.setdefault
    target = None if stmt.target is None else slot(stmt.target, len(slots))
    return stmt, target, tuple([slot(arg, len(slots)) for arg in stmt.args])


class _FrameLayout:
    """One method's variable slots, with its statements rewritten over
    them.  Built once per program (cached in ``Program.frame_layouts``)
    and shared by every solve and every context of the method.

    Slot ``i < len(names)`` holds the variable ``names[i]``; an instance
    method's ``this`` is slot 0.  Slot ``exc`` (``len(names)``) is the
    method's exceptional exit, which only a frame of a method that may
    throw has: the frame of the method under one context is the block
    of node ids ``base .. base + size - 1`` then, else ``base .. base +
    exc - 1``.  Whether the method may throw is a property of the whole
    program, and layouts are shared by edited clones, so each solve
    decides it (``Solver._frame``).
    ``uses`` maps each slot that is the base of a load, store or
    virtual call to ``(loads, stores, invokes)``: only those slots carry
    statement metadata.
    """

    __slots__ = (
        "names", "size", "exc", "params", "returns", "allocs", "copies",
        "casts", "static_loads", "static_stores", "throws", "catches",
        "static_invokes", "virtual_sites", "uses",
    )

    def __init__(self, method: Method) -> None:
        # Slots are numbered in first-use order: ``this``, the
        # parameters, then each statement's variables in the order its
        # kind reads them below.
        slots: Dict[str, int] = {}
        slot = slots.setdefault
        if not method.is_static:
            slot("this", 0)
        self.params: Tuple[int, ...] = tuple(
            [slot(p, len(slots)) for p in method.params])
        allocs: List[Tuple[int, int, str]] = []
        copies: List[Tuple[int, int]] = []
        casts: List[Tuple[int, int, str, int]] = []
        static_loads: List[Tuple[str, str, int]] = []
        static_stores: List[Tuple[int, str, str]] = []
        throws: List[int] = []
        catches: List[Tuple[int, str]] = []
        static_invokes: List[_Call] = []
        returns: List[int] = []
        uses: Dict[int, Tuple[list, list, list]] = {}
        kind_of = _STATEMENT_KIND.get
        for stmt in method.statements:
            kind = kind_of(type(stmt))
            if kind is None:
                continue
            if kind < _LOAD:
                if kind == _NEW:
                    allocs.append((slot(stmt.target, len(slots)), stmt.site,
                                   stmt.class_name))
                elif kind == _RETURN:
                    returns.append(slot(stmt.source, len(slots)))
                elif kind == _COPY:
                    copies.append((slot(stmt.source, len(slots)),
                                   slot(stmt.target, len(slots))))
                elif kind == _CAST:
                    casts.append((slot(stmt.source, len(slots)),
                                  slot(stmt.target, len(slots)),
                                  stmt.class_name, stmt.cast_site))
                elif kind == _STATIC_LOAD:
                    static_loads.append((stmt.class_name, stmt.field_name,
                                         slot(stmt.target, len(slots))))
                elif kind == _STATIC_STORE:
                    static_stores.append((slot(stmt.source, len(slots)),
                                          stmt.class_name, stmt.field_name))
                elif kind == _STATIC_INVOKE:
                    static_invokes.append(_call(stmt, slots))
                elif kind == _THROW:
                    throws.append(slot(stmt.source, len(slots)))
                else:
                    catches.append((slot(stmt.target, len(slots)),
                                    stmt.class_name))
                continue
            # a load, store or virtual call: metadata on its base slot
            base = slot(stmt.base, len(slots))
            entry = uses.get(base)
            if entry is None:
                entry = uses[base] = ([], [], [])
            if kind == _LOAD:
                entry[0].append((slot(stmt.target, len(slots)),
                                 stmt.field_name))
            elif kind == _STORE:
                entry[1].append((slot(stmt.source, len(slots)),
                                 stmt.field_name))
            else:
                entry[2].append(_call(stmt, slots))
        self.names: Tuple[str, ...] = tuple(slots)
        self.exc = len(slots)
        self.size = self.exc + 1
        self.returns: Tuple[int, ...] = tuple(returns)
        self.allocs = tuple(allocs)
        self.copies = tuple(copies)
        self.casts = tuple(casts)
        self.static_loads = tuple(static_loads)
        self.static_stores = tuple(static_stores)
        self.throws = tuple(throws)
        self.catches = tuple(catches)
        self.static_invokes = tuple(static_invokes)
        self.virtual_sites: Tuple[int, ...] = tuple(
            stmt.call_site for _, _, invokes in uses.values()
            for stmt, _, _ in invokes)
        self.uses: Dict[int, Tuple[tuple, tuple, tuple]] = {
            index: (tuple(loads), tuple(stores), tuple(invokes))
            for index, (loads, stores, invokes) in uses.items()}


class _Frame:
    """A method under one context: its layout, the first id of its node
    block, and whether its statements were processed.  Every active
    variable node of the frame points at this one record in
    ``Solver._meta_by_node``.  A frame is reserved just before it is
    reached, so a finished solve has one frame per reached (method,
    context) pair."""

    __slots__ = ("ctx", "method", "layout", "base", "reached")

    def __init__(self, ctx: Context, method: Method, layout: _FrameLayout,
                 base: int) -> None:
        self.ctx = ctx
        self.method = method
        self.layout = layout
        self.base = base
        self.reached = False


class Solver:
    """One-shot points-to solve of a program.

    Construct, call :meth:`solve`, inspect the returned
    :class:`~repro.pta.results.PointsToResult`.  The solve counts its
    work in ``counters``; read them through
    :meth:`~repro.pta.results.PointsToResult.stats`.

    ``governor`` optionally subjects the solve to a
    :class:`repro.analysis.governor.ResourceGovernor`: its
    :meth:`~repro.analysis.governor.ResourceGovernor.check` runs on the
    check stride with the live iteration and object counts, and
    may raise any :class:`~repro.resources.ResourceExhausted`.
    ``phase_label`` names the pipeline phase this solve belongs to
    (``"main"`` or ``"pre"``) for budget attribution and for filtering
    ``solve-iteration`` fault injection (:mod:`repro.faults`).

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
        governor=None,
        phase_label: str = "main",
        tracer=None,
    ) -> None:
        if program.entry is None:
            raise ValueError("program has no entry method")
        self.program = program
        self.selector = selector if selector is not None else ContextInsensitive()
        self.heap_model = heap_model if heap_model is not None else AllocationSiteAbstraction()
        self.governor = governor
        self.phase_label = phase_label
        self._type_elements = wants_type_elements(self.selector)
        self._class_dispatch = ignores_receiver(self.selector)
        # (receiver key, method name, arity) -> callee frame (None: the
        # dispatch fails), when the callee context ignores the caller.
        self._callee_memo: Optional[Dict[Tuple[object, str, int],
                                         Optional[_Frame]]] = (
            {} if ignores_caller(self.selector) else None)
        # Only these methods' exceptional exits can ever hold an object:
        # the others get no exceptional call edge and no catch edge.
        self._may_throw = program.may_throw_methods()
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
        # provenance: a set per materialized object, None for a slot
        # never allocated
        self._object_alloc_sites: List[Optional[Set[int]]] = []
        # the key a dispatch memoizes on (``_receiver_key``), set when
        # the object materializes
        self._object_recv_key: List[object] = []
        self._recv_key_ids: Dict[Tuple[str, Context, object], int] = {}
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
        self._object_alloc_sites.extend(repeat(None, numbered.count))
        self._object_recv_key.extend(repeat(None, numbered.count))

        # Cast-filter masks over object ids: O(1) range masks over the
        # numbered block with a watermark scatter for overflow ids.
        self._filter_masks = RangeFilterMasks(
            numbered.class_ranges, self._object_class,
            self._is_subtype_name, start=numbered.count,
        )

        # Per-node state lives in flat lists indexed by node id:
        # ``_pts[i]`` is the node's points-to set as an int bit-vector,
        # ``_succs[i]`` its ``(target, filter_class)`` edges (the shared
        # ``_NO_EDGES`` until the first one), and ``_meta_by_node[i]``
        # the frame whose loads, stores or calls read the node (else
        # None; a collapsed representative holds its members' ``(frame,
        # slot)`` pairs).  Variable and exception nodes are frame slots
        # (``_frame``); ``_node_ids`` interns field and static-field
        # nodes only.  ``_edges`` holds every ``(source, target,
        # filter_class)`` edge, for deduplication.
        self._node_ids: Dict[object, int] = {}
        self._pts: List[int] = []
        self._succs: List[Sequence[Tuple[int, Optional[str]]]] = []
        self._edges: Set[Tuple[int, int, Optional[str]]] = set()
        self._meta_by_node: List[object] = []
        # (ctx, id(method)) -> frame, in reservation order
        self._frames: Dict[Tuple[Context, int], _Frame] = {}
        self._layouts: Dict[int, object] = program.frame_layouts

        self._reachable_methods: Set[str] = set()

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
        self._stride_mask = CHECK_STRIDE - 1
        self._fault_plan = None
        self.tracer = tracer
        # current stride-window span id + counters at its start
        self._window_span: Optional[int] = None
        self._window_start_iter = 0
        self._window_start_facts = 0

        # --- constraint-graph condensation state -----------------------
        # Union-find over node ids: find(node) is the live representative
        # every accessor and edge operation resolves through; until the
        # first collapse it is the identity.  (Imported here, not at
        # module level: repro.core's package __init__ pulls
        # the automata stack, which imports repro.pta.results → this
        # module — a cycle at import time but not at construction time.)
        from repro.core.disjoint_sets import IntDisjointSets

        self._uf = IntDisjointSets()
        self._find = self._uf.find
        # Wave scheduling: per-representative merged pending
        # deltas plus a heap of (topo order, node) pop priorities.
        self._topo_order: List[int] = []
        self._pending: Dict[int, int] = {}
        self._heap: List[Tuple[int, int]] = []
        self._fresh_pushes = 0
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
        # ``_enter_wave_mode``.
        # The FIFO worklist is a deque of node ids; a queued node's
        # delta waits in ``_fifo_delta`` (a flat list over node ids,
        # grown in lockstep with ``_pts``, 0 when the node is not
        # queued), so a push landing on a queued node ORs into it — the
        # same merging the wave pending dict performs, kept in FIFO
        # order.
        self._wave = False
        self._adaptive = AdaptiveGate()
        self._fifo_delta: List[int] = []
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
        # Resolve the check cadence: the governor may lower the default
        # stride, and an armed fault plan checks every pop, so its
        # iteration faults land exactly even when a whole solve fits
        # inside one 1024-pop window.
        plan = _faults.current_plan()
        stride = CHECK_STRIDE
        if self.governor is not None:
            stride = min(stride, self.governor.check_stride)
        if plan is not None:
            stride = 1
        self._stride_mask = stride - 1
        self._fault_plan = plan
        tracer = self.tracer
        solve_span = None
        if tracer is not None:
            solve_span = tracer.begin("solve", phase=self.phase_label)
        scope = (self.governor.ensure_phase(self.phase_label)
                 if self.governor is not None else nullcontext())
        self._add_reachable(self._frame(EMPTY_CONTEXT, self.program.entry))
        try:
            with scope:
                if tracer is not None:
                    self._begin_window()
                # Rank the statically-known topology (and collapse any
                # cycles already present) before the first pop; the pass
                # doubles as the mode decision.  Cycles → wave
                # scheduling pays for itself.  Acyclic → stay on the
                # FIFO loop (drained in the ranking's topological order)
                # and probe at stride gates.
                self._collapse_cycles()
                self._adaptive.reset_baseline(len(self._pts))
                if self.counters["sccs_collapsed"]:
                    self._enter_wave_mode()
                else:
                    self._sort_worklist_topologically()
                if not self._wave:
                    self._run_fifo()
                    if self._worklist:
                        # The FIFO loop stopped early because a probe
                        # found cycles: switch the remaining worklist to
                        # wave order, collapse, and resume in the wave
                        # loop.
                        self._enter_wave_mode()
                        self._collapse_cycles()
                if self._wave:
                    self._run_wave()
        finally:
            self.solve_seconds = time.monotonic() - start
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
        queued = self._fifo_delta
        push = self._push
        while worklist:
            node = worklist.popleft()
            delta = queued[node]
            queued[node] = 0
            push(node, delta)

    def _sort_worklist_topologically(self) -> None:
        """Reorder the seed worklist by the up-front ranking (stable, so
        equal ranks keep push order).  On acyclic graphs topological
        order is the provably good propagation order; this hands the
        FIFO loop that order for the statically-known graph without any
        per-pop heap cost."""
        worklist = self._worklist
        if len(worklist) > 1:
            self._worklist = deque(
                sorted(worklist, key=self._topo_order.__getitem__))

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

    def _stride_gate(self, iterations: int, worklist: int,
                     facts: Optional[int] = None) -> None:
        """The budget checks both loops run every ``stride`` pops (and
        once on entry, so an already-expired budget raises even if the
        solve would finish within one stride): governor and armed fault
        plan.  With ``facts`` given (a gate inside the loop) the trace's
        ``stride`` window rotates too."""
        if self.governor is not None:
            self.governor.check(iterations=iterations,
                                objects=len(self._object_ids))
        if self._fault_plan is not None:
            self._fault_plan.check_iteration(iterations, self.phase_label)
        if facts is not None and self.tracer is not None:
            self._rotate_window(iterations, worklist, facts)

    def _run_fifo(self) -> None:
        """FIFO fixpoint loop with delta coalescing.

        Points-to sets are ints: the surviving delta is ``delta &
        ~known`` and cast filters are mask ANDs.  The worklist holds
        node ids; a queued node's delta waits in ``_fifo_delta`` (see
        :meth:`_push_fifo_coalesce`): pushes landing on a queued node
        merge into it (counted as ``propagations_saved``), so the node
        is popped once with the union instead of once per push — the
        merging the wave loop's pending dict performs, without the
        heap.  The stride gate also probes for cycles
        (:meth:`_fifo_probe`) and breaks out so :meth:`solve` can
        promote to the wave loop.
        """
        worklist = self._worklist
        pop = worklist.popleft
        append = worklist.append
        queued = self._fifo_delta
        pts = self._pts
        succs = self._succs
        meta_by_node = self._meta_by_node
        mask_for = self._filter_masks.mask_for
        gate = self._stride_gate
        stride_mask = self._stride_mask
        probe = self._fifo_probe
        iterations = self.iterations
        facts = 0
        saved = 0
        gate(iterations, len(worklist))
        try:
            while worklist:
                iterations += 1
                if not iterations & stride_mask:
                    gate(iterations, len(worklist), facts)
                    if probe():
                        break
                node = pop()
                delta = queued[node]
                # consume: later pushes to this node re-queue it
                queued[node] = 0
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
                    waiting = queued[succ]
                    if waiting:
                        queued[succ] = waiting | filtered
                        saved += 1
                    else:
                        queued[succ] = filtered
                        append(succ)
                meta = meta_by_node[node]
                if meta is not None:
                    self._process_var_delta(meta, node - meta.base, delta)
        finally:
            self.iterations = iterations
            self.counters["facts_propagated"] += facts
            self.counters["propagations_saved"] += saved

    def _push_fifo_coalesce(self, node: int, delta: int) -> None:
        """FIFO push with wave-style delta merging.

        A push landing on a queued node (nonzero ``_fifo_delta``) ORs
        into its waiting delta instead of queueing the node again.  The
        loop zeroes the delta on pop, so later pushes re-queue the node
        at the tail — plain FIFO order, strictly fewer pops.
        """
        queued = self._fifo_delta
        waiting = queued[node]
        if waiting:
            queued[node] = waiting | delta
            self.counters["propagations_saved"] += 1
            return
        queued[node] = delta
        self._worklist.append(node)

    # ------------------------------------------------------------------
    # Wave-scheduled fixpoint loop
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
            rank = self._topo_order[node]
            if rank == _FRESH_NODE_ORDER:
                # unranked nodes pop after every ranked one, in push order
                rank += self._fresh_pushes
                self._fresh_pushes += 1
            heappush(self._heap, (rank, node))
        else:
            pending[node] = current | delta
            self.counters["propagations_saved"] += 1

    def _run_wave(self) -> None:
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
        gate(iterations, len(pending))
        try:
            while heap:
                iterations += 1
                if not iterations & stride_mask:
                    gate(iterations, len(pending), facts)
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
                        # a collapsed representative: its members'
                        # (frame, slot) pairs
                        for frame, slot in meta:
                            self._process_var_delta(frame, slot, delta)
                    else:
                        self._process_var_delta(meta, node - meta.base,
                                                delta)
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
        """Stride-gate hook of the FIFO (acyclic) mode: a read-only
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
        cycles, _ = self._condense()
        self._backoff(bool(cycles))
        if not cycles:
            return False
        # Cycles formed mid-solve: promote.  The promotion re-runs the
        # pass inside _collapse_cycles (at most once per solve), which
        # also refreshes the wave priorities.
        self.counters["scc_promotions"] += 1
        return True

    def _condense(self) -> Tuple[List[List[int]], Dict[int, int]]:
        """One ranking pass (:func:`~repro.pta.scc.condense_copy_graph`)
        over the constraint graph.  Reserved frame slots no statement
        has touched yet (no successor, no object, no queued delta) stay
        unranked, keeping the fresh-node priority they would have had
        if frames were not reserved whole."""
        return condense_copy_graph(self._succs, self._uf, tracer=self.tracer,
                                   pts=self._pts, queued=self._fifo_delta,
                                   pending=self._pending)

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
        cycles, order = self._condense()
        topo = self._topo_order
        for node, position in order.items():
            topo[node] = position
        if not cycles:
            return
        pending = self._pending
        pts = self._pts
        succs = self._succs
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
            # (frame, slot) of every member variable the statements read
            metas: List[Tuple[_Frame, int]] = []
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
                        metas.append((meta, member - meta.base))
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
                succs[member] = _NO_EDGES
                meta_by_node[member] = None
            succs[root] = merged_succs or _NO_EDGES
            if metas:
                meta_by_node[root] = metas
            if merged:
                pending[root] = merged
                heappush(self._heap, (topo[root], root))
        # Re-point surviving edges of every live node at the new
        # representatives, dropping duplicates, and rebuild the edge set
        # from them — keeps later `_add_edge` dedup exact and pops from
        # chasing stale ids.
        parent = uf.parent
        edges = self._edges
        edges.clear()
        for node in range(len(succs)):
            if parent[node] != node:
                continue
            out = succs[node]
            if not out:
                continue
            rewritten: List[Tuple[int, Optional[str]]] = []
            changed = False
            for target, filter_class in out:
                resolved = target if parent[target] == target else find(target)
                if resolved != target:
                    changed = True
                if resolved == node:
                    counters["scc_edges_dropped"] += 1
                    changed = True
                    continue
                key = (node, resolved, filter_class)
                if key in edges:
                    changed = True
                    continue
                edges.add(key)
                rewritten.append((resolved, filter_class))
            if changed:
                succs[node] = rewritten or _NO_EDGES

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
    def _grow(self, count: int) -> None:
        """Append ``count`` fresh nodes to every per-node list.

        Until the next detection pass ranks them, new nodes pop *after*
        everything already ordered (they are created by freshly
        propagated facts, so they sit downstream of the known
        topology), in push order."""
        self._pts.extend(repeat(0, count))
        self._succs.extend(repeat(_NO_EDGES, count))
        self._meta_by_node.extend(repeat(None, count))
        self._fifo_delta.extend(repeat(0, count))
        self._topo_order.extend(repeat(_FRESH_NODE_ORDER, count))
        self._uf.grow(len(self._pts))

    def _node(self, key: object) -> int:
        """Intern a field or static-field node (``_grow`` by one, with
        plain appends: this is the per-fact path)."""
        node = self._node_ids.get(key)
        if node is None:
            node = len(self._pts)
            self._node_ids[key] = node
            self._pts.append(0)
            self._succs.append(_NO_EDGES)
            self._meta_by_node.append(None)
            self._fifo_delta.append(0)
            self._topo_order.append(_FRESH_NODE_ORDER)
            self._uf.add()
        return node

    def _frame(self, ctx: Context, method: Method) -> _Frame:
        """The frame of ``method`` under ``ctx``, reserved on first use:
        one contiguous block of node ids, a variable node per slot of
        the method's layout, plus its exceptional exit when the method
        may throw.  Thrown objects reach the exit, and it flows to
        callers' exits along call edges (the flow-insensitive
        exceptional flow Doop models); a method that cannot throw gets
        no exit, since no object could ever reach it.  The layout is
        shared by edited clones of the program, so the size is decided
        here, from this solve's ``_may_throw``.  Variable ``slot`` of the frame is node
        ``base + slot``; slots the statements read point at the frame
        in ``_meta_by_node``."""
        mkey = id(method)
        key = (ctx, mkey)
        frame = self._frames.get(key)
        if frame is not None:
            return frame
        layout = self._layouts.get(mkey)
        if layout is None:
            layout = self._layouts[mkey] = _FrameLayout(method)
        base = len(self._pts)
        frame = _Frame(ctx, method, layout, base)
        self._frames[key] = frame
        self._grow(layout.size if method in self._may_throw else layout.exc)
        meta_by_node = self._meta_by_node
        for slot in layout.uses:
            meta_by_node[base + slot] = frame
        return frame

    def variable_nodes(self) -> Iterator[Tuple[int, Context, Method, str]]:
        """Yield ``(node, ctx, method, var)`` for every variable node,
        frame by frame in reservation order.  Every variable of a
        reached method has a node in each of its contexts, touched by a
        statement or not (an untouched one points to nothing)."""
        for frame in self._frames.values():
            base, ctx, method = frame.base, frame.ctx, frame.method
            for slot, name in enumerate(frame.layout.names):
                yield base + slot, ctx, method, name

    def exception_nodes(self) -> Iterator[Tuple[int, Context, Method]]:
        """Yield ``(node, ctx, method)`` for the exceptional exit of
        every frame that has one (its method may throw), in reservation
        order."""
        may_throw = self._may_throw
        for frame in self._frames.values():
            if frame.method in may_throw:
                yield frame.base + frame.layout.exc, frame.ctx, frame.method

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
                self._object_alloc_sites[obj] = set()
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
                self._object_recv_key.append(None)
            self._object_recv_key[obj] = self._receiver_key(obj)
            self._live_objects.append(obj)
        self._object_alloc_sites[obj].add(site)
        return obj

    def _receiver_key(self, obj: int) -> object:
        """What ``select_virtual`` and dispatch read of receiver ``obj``:
        its class under a receiver-free selector, else its class, heap
        context and context element, interned as one int."""
        class_name = self._object_class[obj]
        if self._class_dispatch:
            return class_name
        triple = (class_name, self._object_heap_ctx[obj],
                  self._object_ctx_elem[obj])
        ids = self._recv_key_ids
        key = ids.get(triple)
        if key is None:
            key = ids[triple] = len(ids)
        return key

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def _add_reachable(self, frame: _Frame) -> None:
        """Process the statements of a newly reached frame (once)."""
        if frame.reached:
            return
        frame.reached = True
        self._reachable_methods.add(frame.method.qualified_name)
        ctx = frame.ctx
        layout = frame.layout
        base = frame.base
        push = self._push
        add_edge = self._add_edge
        for slot, site, class_name in layout.allocs:
            obj = self._object(site, class_name, ctx)
            push(base + slot, 1 << obj)
        for source, target in layout.copies:
            add_edge(base + source, base + target)
        for source, target, class_name, cast_site in layout.casts:
            add_edge(base + source, base + target, class_name)
            self._cast_records.add((cast_site, class_name, base + source))
        for class_name, field, target in layout.static_loads:
            add_edge(self._static_field_node(class_name, field), base + target)
        for source, class_name, field in layout.static_stores:
            add_edge(base + source, self._static_field_node(class_name, field))
        if (layout.throws or layout.catches) \
                and frame.method in self._may_throw:
            # a method with a ``throw`` may throw, so only a catch in a
            # method that cannot throw finds no exit to read
            exc = base + layout.exc
            for source in layout.throws:
                add_edge(base + source, exc)
            for target, class_name in layout.catches:
                add_edge(exc, base + target, class_name)
        for call in layout.static_invokes:
            self._process_static_invoke(frame, call)
        # Register reachable virtual call sites even before (or without)
        # any receiver object arriving — a site whose receiver set stays
        # empty is an *unresolved* dispatch, which the devirtualization
        # client reports separately from mono/poly.  This is the only
        # registration: dispatch only runs on sites of reached methods.
        self._virtual_sites_seen.update(layout.virtual_sites)

    # ------------------------------------------------------------------
    # Edges and statement processing
    # ------------------------------------------------------------------
    def _add_edge(self, source: int, target: int,
                  filter_class: Optional[str] = None) -> None:
        if self._wave:
            # Unions only ever happen in wave mode; the FIFO mode (the
            # adaptive acyclic path) skips the resolution entirely.
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
        key = (source, target, filter_class)
        edges = self._edges
        if key in edges:
            return
        edges.add(key)
        if filter_class is None:
            self.counters["copy_edges"] += 1
        else:
            self.counters["filtered_edges"] += 1
        out = self._succs[source]
        if out:
            out.append((target, filter_class))
        else:
            self._succs[source] = [(target, filter_class)]
        existing = self._pts[source]
        if existing:
            if filter_class is not None:
                existing &= self._filter_masks.mask_for(filter_class)
            if existing:
                # bit-vectors are immutable: push the set as-is
                self._push(target, existing)

    def _process_var_delta(self, frame: _Frame, slot: int,
                           delta: int) -> None:
        """Run the loads, stores and virtual calls whose base is
        variable ``slot`` of ``frame`` on the objects ``delta``."""
        loads, stores, invokes = frame.layout.uses[slot]
        class_dispatch = self._class_dispatch
        if loads or stores or not class_dispatch:
            objs = bits_to_list(delta)
        base = frame.base
        if loads:
            for target, field in loads:
                target += base
                for obj in objs:
                    self.counters["load_edges"] += 1
                    self._add_edge(self._field_node(obj, field), target)
        if stores:
            for source, field in stores:
                source += base
                for obj in objs:
                    self.counters["store_edges"] += 1
                    self._add_edge(source, self._field_node(obj, field))
        if not invokes:
            return
        dispatch = self._process_virtual_dispatch
        if not class_dispatch:
            if self._type_elements:
                # Receiver groups: objects sharing a receiver key reach
                # the same (callee, context), so each group dispatches
                # once, in the order of its lowest id.
                recv_key = self._object_recv_key
                groups: Dict[object, int] = {}
                for obj in objs:
                    key = recv_key[obj]
                    groups[key] = groups.get(key, 0) | 1 << obj
                for call in invokes:
                    for bits in groups.values():
                        dispatch(frame, call,
                                 (bits & -bits).bit_length() - 1, bits)
                return
            for call in invokes:
                for obj in objs:
                    dispatch(frame, call, obj, 1 << obj)
            return
        # Class slices: the selector ignores the receiver, so every
        # object of one class reaches the same (callee, context).  Each
        # class's own numbered objects are one contiguous id block
        # ending at ``own_end``; overflow ids sort after every block and
        # dispatch one by one.
        count = self._numbering.count
        own_end = self._numbering.own_end
        for call in invokes:
            rest = delta
            while rest:
                low = rest & -rest
                obj = low.bit_length() - 1
                if obj >= count:
                    for obj in bits_to_list(rest):
                        dispatch(frame, call, obj, 1 << obj)
                    break
                block = rest & ((1 << own_end[obj]) - low)
                rest ^= block
                dispatch(frame, call, obj, block)

    def _process_virtual_dispatch(self, frame: _Frame, call: _Call,
                                  obj: int, bits: int) -> None:
        """Dispatch the virtual ``call`` of ``frame`` on the receivers
        ``bits``: one object, or a class slice (receiver-free selector)
        or receiver group (type-sensitive selector) whose lowest object
        is ``obj``.  Counted as one ``dispatch_attempts``.  When the
        callee context ignores the caller, the callee frame comes from
        the per-solve memo on ``obj``'s receiver key."""
        self.counters["dispatch_attempts"] += 1
        stmt, target, args = call
        ctx = frame.ctx
        memo = self._callee_memo
        if memo is None:
            callee_frame = self._resolve_virtual(ctx, stmt, len(args), obj)
        else:
            key = (self._object_recv_key[obj], stmt.method_name, len(args))
            callee_frame = memo.get(key, _UNRESOLVED)
            if callee_frame is _UNRESOLVED:
                callee_frame = memo[key] = self._resolve_virtual(
                    ctx, stmt, len(args), obj)
        if callee_frame is None:
            return
        # `this` (slot 0 of an instance method's frame) receives exactly
        # the dispatching objects, unconditionally (cheap, dedups in
        # propagate).
        self._push(callee_frame.base, bits)
        callee = callee_frame.method.qualified_name
        edge = (ctx, stmt.call_site, callee_frame.ctx, callee)
        if edge in self._cg_edges_ctx:
            return
        self._cg_edges_ctx.add(edge)
        self._cg_edges_proj.add((stmt.call_site, callee))
        self._add_reachable(callee_frame)
        self._link_call(frame, target, args, callee_frame)

    def _resolve_virtual(self, ctx: Context, stmt, arity: int,
                         obj: int) -> Optional[_Frame]:
        """The callee frame of virtual call ``stmt`` in context ``ctx``
        on receiver ``obj`` (None when dispatch finds no method of that
        name and ``arity``), reserved on first use."""
        callee = self.program.dispatch(self._object_class[obj],
                                       stmt.method_name)
        if callee is None or len(callee.params) != arity:
            return None
        receiver = ReceiverInfo(
            obj, self._object_heap_ctx[obj], self._object_ctx_elem[obj]
        )
        callee_ctx = self.selector.select_virtual(
            ctx, stmt.call_site, receiver, callee.qualified_name
        )
        return self._frame(callee_ctx, callee)

    def _process_static_invoke(self, frame: _Frame, call: _Call) -> None:
        stmt, target, args = call
        self._static_sites_seen.add(stmt.call_site)
        callee = self.program.static_method(stmt.class_name, stmt.method_name)
        if callee is None or len(callee.params) != len(args):
            return
        ctx = frame.ctx
        callee_ctx = self.selector.select_static(
            ctx, stmt.call_site, callee.qualified_name
        )
        edge = (ctx, stmt.call_site, callee_ctx, callee.qualified_name)
        if edge in self._cg_edges_ctx:
            return
        self._cg_edges_ctx.add(edge)
        self._cg_edges_proj.add((stmt.call_site, callee.qualified_name))
        callee_frame = self._frame(callee_ctx, callee)
        self._add_reachable(callee_frame)
        self._link_call(frame, target, args, callee_frame)

    def _link_call(self, frame: _Frame, target: Optional[int],
                   args: Tuple[int, ...], callee_frame: _Frame) -> None:
        """Edges of one call-graph edge: arguments to parameters, the
        callee's returns to the call's result slot ``target``, and, when
        the callee may throw, its exceptional exit to the caller's."""
        base = frame.base
        callee_base = callee_frame.base
        callee_layout = callee_frame.layout
        add_edge = self._add_edge
        for arg, param in zip(args, callee_layout.params):
            add_edge(base + arg, callee_base + param)
        if target is not None:
            target_node = base + target
            for ret in callee_layout.returns:
                add_edge(callee_base + ret, target_node)
        # exceptional flow: whatever escapes the callee reaches the
        # caller's exceptional exit.  Only a callee that may throw has
        # an exit, and its callers may throw too, so theirs exists.
        if callee_frame.method in self._may_throw:
            add_edge(callee_base + callee_layout.exc, base + frame.layout.exc)


def solve(program: Program, selector: Optional[ContextSelector] = None,
          heap_model: Optional[HeapModel] = None,
          governor=None, phase_label: str = "main", tracer=None):
    """Convenience wrapper: build a :class:`Solver` and run it."""
    return Solver(program, selector, heap_model, governor=governor,
                  phase_label=phase_label, tracer=tracer).solve()

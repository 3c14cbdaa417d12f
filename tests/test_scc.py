"""Constraint-graph condensation: unit and regression tests.

Covers the dense union-find (:class:`repro.core.disjoint_sets.
IntDisjointSets`), the Tarjan condensation pass
(:func:`repro.pta.scc.condense_copy_graph`), collapse behavior inside
the solver, the schedule each benchmark-shaped program takes (wave loop
on cycles, FIFO loop otherwise), and the satellite regression: governor
work-guard and fault-injection stride accounting must stay exact after
node merges.  Condensation is always on; where a test once compared
against the uncondensed solve, it now checks the reference solver or the
pop count that solve took.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dataclasses
import random

from repro import faults
from repro.analysis import run_analysis
from repro.analysis.governor import ResourceGovernor
from repro.core.disjoint_sets import IntDisjointSets
from repro.frontend import parse_program
from repro.obs import InMemorySink, Tracer
from repro.pta.context import selector_for
from repro.pta.scc import AdaptiveGate, condense_copy_graph
from repro.pta.solver import Solver
from repro.resources import ResourceExhausted, WorkBudgetExceeded
from repro.workloads import CYCLES, WorkloadSpec, generate, load_profile
from repro.workloads.profiles import profile_spec

from tests.test_reference_solver import assert_matches_reference


@pytest.fixture(scope="module")
def cycles_program():
    """A small but genuinely cycle-heavy program (shared static hubs)."""
    return generate(CYCLES.scaled(0.5))


# ----------------------------------------------------------------------
# IntDisjointSets
# ----------------------------------------------------------------------
class TestIntDisjointSets:
    def test_add_and_find_identity(self):
        uf = IntDisjointSets()
        assert uf.add() == 0
        assert uf.add() == 1
        assert len(uf) == 2
        assert uf.find(0) == 0
        assert uf.find(1) == 1
        assert uf.merges == 0

    def test_union_and_connectivity(self):
        uf = IntDisjointSets(5)
        root = uf.union(0, 1)
        assert root in (0, 1)
        assert uf.connected(0, 1)
        assert not uf.connected(0, 2)
        assert uf.merges == 1
        # idempotent union does not count as a merge
        assert uf.union(0, 1) == root
        assert uf.merges == 1

    def test_parent_peek_matches_find(self):
        """The hot loop peeks ``parent[i] == i`` instead of calling
        ``find`` — the peek must agree with ``find`` on liveness."""
        uf = IntDisjointSets(8)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(5, 6)
        for i in range(8):
            assert (uf.parent[i] == i) == (uf.find(i) == i)

    def test_path_halving_flattens(self):
        uf = IntDisjointSets(64)
        for i in range(63):
            uf.union(i, i + 1)
        root = uf.find(0)
        assert all(uf.find(i) == root for i in range(64))
        # after the finds above, every chain is (near-)flat
        assert all(uf.parent[uf.parent[i]] == root for i in range(64))

    def test_grow_roots_classes(self):
        uf = IntDisjointSets()
        uf.grow(4)
        assert len(uf) == 4
        uf.grow(2)  # never shrinks
        assert len(uf) == 4
        uf.union(0, 3)
        roots = set(uf.roots())
        assert len(roots) == 3
        classes = {frozenset(c) for c in uf.classes()}
        assert frozenset({0, 3}) in classes

    def test_matches_generic_oracle(self):
        from repro.core.disjoint_sets import DisjointSets

        import random

        rng = random.Random(99)
        uf = IntDisjointSets(32)
        oracle = DisjointSets(range(32))
        for _ in range(100):
            a, b = rng.randrange(32), rng.randrange(32)
            uf.union(a, b)
            oracle.union(a, b)
            c, d = rng.randrange(32), rng.randrange(32)
            assert uf.connected(c, d) == oracle.connected(c, d)


# ----------------------------------------------------------------------
# condense_copy_graph
# ----------------------------------------------------------------------
class TestCondenseCopyGraph:
    def _graph(self, n, edges):
        succs = [[] for _ in range(n)]
        for src, dst, *filt in edges:
            succs[src].append((dst, filt[0] if filt else None))
        return succs

    def test_finds_simple_cycle(self):
        succs = self._graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        cycles, order = condense_copy_graph(succs, IntDisjointSets(4))
        assert len(cycles) == 1
        assert sorted(cycles[0]) == [0, 1, 2]
        # sources pop before sinks, and cycle members share one index
        assert order[0] == order[1] == order[2]
        assert order[0] < order[3]

    def test_filtered_edges_do_not_close_cycles(self):
        """A cast-filtered edge is not a pointer equivalence."""
        succs = self._graph(3, [(0, 1), (1, 2), (2, 0, "T")])
        cycles, _ = condense_copy_graph(succs, IntDisjointSets(3))
        assert cycles == []

    def test_merged_nodes_skipped_and_targets_resolved(self):
        uf = IntDisjointSets(5)
        rep = uf.union(0, 1)
        stale = 1 if rep == 0 else 0
        # the edge 2 → stale must resolve to the rep, closing the
        # 3-cycle {rep, 2, 3}; the stale id itself is never visited
        succs = self._graph(5, [(2, stale), (rep, 3), (3, 2)])
        cycles, order = condense_copy_graph(succs, uf)
        assert len(cycles) == 1
        assert sorted(cycles[0]) == sorted([rep, 2, 3])
        assert stale not in order  # dead ids are never visited

    def test_two_disjoint_cycles_topological(self):
        succs = self._graph(
            6, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 3), (4, 5)]
        )
        cycles, order = condense_copy_graph(succs, IntDisjointSets(6))
        assert {frozenset(c) for c in cycles} == {
            frozenset({0, 1}), frozenset({3, 4})
        }
        # upstream cycle before midpoint before downstream cycle
        assert order[0] < order[2] < order[3] < order[5]

    def test_self_loop_is_not_a_cycle(self):
        succs = self._graph(2, [(0, 0), (0, 1)])
        cycles, _ = condense_copy_graph(succs, IntDisjointSets(2))
        assert cycles == []

    def test_idle_nodes_stay_unranked_unless_reached(self):
        """An idle node (no successors, no object, no delta waiting) is
        no start: 3 is never visited, while 2 is ranked because the edge
        1 → 2 reaches it."""
        succs = self._graph(4, [(0, 1), (1, 2)])
        cycles, order = condense_copy_graph(
            succs, IntDisjointSets(4), pts=[0, 0, 0, 0], queued=[0] * 4,
            pending={})
        assert cycles == []
        assert sorted(order) == [0, 1, 2]
        assert order[0] < order[1] < order[2]

    def test_leaves_are_ranked_where_met(self):
        """Leaves are components of their own: as starts (1), as targets
        of a start's edges (2, 3) and deep in a traversal (5)."""
        succs = self._graph(6, [(0, 2), (0, 3), (0, 4), (4, 5)])
        succs[1] = ()
        cycles, order = condense_copy_graph(succs, IntDisjointSets(6))
        assert cycles == []
        assert sorted(order) == list(range(6))
        assert sorted(order.values()) == list(range(6))
        assert order[0] < order[2] and order[0] < order[3]
        assert order[0] < order[4] < order[5]

    def test_deep_chain_no_recursion_limit(self):
        n = 5000  # far beyond the default Python recursion limit
        edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
        cycles, _ = condense_copy_graph(self._graph(n, edges),
                                        IntDisjointSets(n))
        assert len(cycles) == 1
        assert len(cycles[0]) == n


@st.composite
def condensation_inputs(draw):
    """A graph over ``n`` node ids with some ids merged (stale edge
    targets), leaves (``()`` successors), filtered edges and self
    loops, plus the solver's idle-test state (or none of it)."""
    n = draw(st.integers(1, 12))
    uf = IntDisjointSets(n)
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=4)):
        uf.union(a, b)
    succs = [() for _ in range(n)]
    for src, dst, filtered in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.booleans()), max_size=3 * n)):
        if not succs[src]:
            succs[src] = []
        succs[src].append((dst, "T" if filtered else None))
    held = {}
    if draw(st.booleans(), label="idle_test"):
        flags = st.lists(st.booleans(), min_size=n, max_size=n)
        held = {"pts": [int(f) for f in draw(flags, label="pts")],
                "queued": [int(f) for f in draw(flags, label="queued")],
                "pending": {i for i, f in enumerate(draw(flags, label="pend"))
                            if f}}
    return succs, uf, held


class TestCondensationAgainstReachability:
    """``condense_copy_graph`` against a reference built here from the
    definitions: components are the classes of mutual reachability over
    the copy edges between representatives, and ``order`` must number
    them 0.. with every edge between two components pointing forward."""

    @given(condensation_inputs())
    @settings(max_examples=300, deadline=None)
    def test_cycles_and_order_match_definitions(self, inputs):
        succs, uf, held = inputs
        n = len(succs)
        live = [node for node in range(n) if uf.find(node) == node]
        copy = {node: {uf.find(target) for target, filtered in succs[node]
                       if filtered is None} - {node}
                for node in live}

        def idle(node):
            return (held and not succs[node] and not held["pts"][node]
                    and not held["queued"][node]
                    and node not in held["pending"])

        def reach(node):
            seen, todo = {node}, [node]
            while todo:
                for succ in copy[todo.pop()]:
                    if succ not in seen:
                        seen.add(succ)
                        todo.append(succ)
            return seen

        reaches = {node: reach(node) for node in live}
        visited = set().union(*(reaches[node] for node in live
                                if not idle(node)))
        component = {node: frozenset(other for other in reaches[node]
                                     if node in reaches[other])
                     for node in visited}

        cycles, order = condense_copy_graph(succs, uf, **held)

        assert {frozenset(c) for c in cycles} == {
            c for c in component.values() if len(c) > 1}
        members = [member for cycle in cycles for member in cycle]
        assert len(members) == len(set(members))  # none listed twice
        assert set(order) == visited
        by_index = {}
        for node, index in order.items():
            by_index.setdefault(index, set()).add(node)
        assert sorted(by_index) == list(range(len(by_index)))
        assert {frozenset(members) for members in by_index.values()} \
            == set(component.values())
        for node in visited:
            for succ in copy[node]:
                if component[succ] != component[node]:
                    assert order[node] < order[succ], (node, succ)


# ----------------------------------------------------------------------
# The on/off registry
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# Collapse behavior inside the solver
# ----------------------------------------------------------------------
class TestCollapse:
    def test_cycles_collapse_and_save_work(self, cycles_program):
        solver = Solver(cycles_program)
        result = solver.solve()
        assert solver.counters["sccs_collapsed"] > 0
        assert solver.counters["scc_nodes_merged"] > 0
        assert solver.counters["scc_edges_dropped"] > 0
        assert solver.counters["propagations_saved"] > 0
        assert_matches_reference(cycles_program, result)

    def test_unranked_nodes_pop_in_push_order(self):
        """Nodes no ranking pass has placed pop after every ranked one,
        in push order.  With their ties broken by node id instead, the
        condensed ci solve of this program popped 22,128 times against
        the (since deleted) uncondensed solve's 12,574."""
        program = load_profile("cycles", 4.0)
        solver = Solver(program, selector_for("ci"))
        solver.solve()
        assert solver.counters["sccs_collapsed"] > 0
        assert solver.iterations * 2 < 12_574

    def test_member_accessors_resolve_to_representative(self, cycles_program):
        solver = Solver(cycles_program)
        solver.solve()
        uf = solver._uf
        merged = [i for i in range(len(uf)) if uf.parent[i] != i]
        assert merged, "expected at least one merged node"
        for node in merged[:50]:
            rep = uf.find(node)
            assert solver.node_pts_bits(node) == solver.node_pts_bits(rep)
            assert solver.node_pts_ids(node) == solver.node_pts_ids(rep)
            assert solver.node_pts_count(node) == solver.node_pts_count(rep)
            # collapse cleared the member's own state
            assert len(solver._succs[node]) == 0
            assert solver._meta_by_node[node] is None


# ----------------------------------------------------------------------
# Satellite regression: stride accounting under merges
# ----------------------------------------------------------------------
class TestStrideAccountingAfterMerges:
    """Collapsed nodes must not distort governor work guards or skip the
    stride callback: the wave loop counts *every* pop (stale and merged
    included) on the same monotone iteration clock as the FIFO loop."""

    def test_work_guard_trips_exactly(self, cycles_program):
        # learn the full iteration count under the same stride, then
        # budget half of it
        baseline = Solver(cycles_program,
                          governor=ResourceGovernor(check_stride=1))
        baseline.solve()
        assert baseline.iterations > 4
        limit = baseline.iterations // 2
        governor = ResourceGovernor.from_limits(max_iterations=limit,
                                                check_stride=1)
        solver = Solver(cycles_program, governor=governor)
        with pytest.raises(WorkBudgetExceeded):
            solver.solve()
        # stride 1 ⇒ the guard saw every single iteration; merges must
        # not have let the count run past the budget
        assert solver.iterations <= limit + 1

    def test_fault_stride_callback_not_skipped(self, cycles_program):
        """A ``solve-iteration`` fault armed at iteration N must fire at
        exactly N even while collapse passes rewrite the graph."""
        baseline = Solver(cycles_program,
                          governor=ResourceGovernor(check_stride=1))
        baseline.solve()
        at = baseline.iterations // 2
        assert at > 1
        plan = faults.FaultPlan.parse(f"solve-iteration:at={at}")
        solver = Solver(cycles_program)
        with faults.active(plan):
            with pytest.raises(ResourceExhausted):
                solver.solve()
        assert plan.log == [("solve-iteration", f"iterations={at}")]
        # the program is cycle-heavy enough that detection ran before
        # the fault point — i.e. the callback survived actual merges
        assert solver.counters["scc_passes"] >= 1
        assert solver.counters["scc_nodes_merged"] > 0

    def test_interrupted_then_fresh_solve_agrees(self, cycles_program):
        """A solve interrupted mid-collapse leaves no corrupted shared
        state behind (everything is per-Solver): a fresh solve still
        reproduces the reference solver's facts."""
        baseline = Solver(cycles_program,
                          governor=ResourceGovernor(check_stride=1))
        baseline.solve()
        governor = ResourceGovernor.from_limits(
            max_iterations=baseline.iterations // 2, check_stride=1)
        interrupted = Solver(cycles_program, governor=governor)
        with pytest.raises(ResourceExhausted):
            interrupted.solve()
        assert_matches_reference(cycles_program,
                                 Solver(cycles_program).solve())

    def test_governor_sees_pending_as_worklist(self, cycles_program):
        """The wave loop reports its pending map as the worklist depth
        of its ``stride`` trace windows (an unbounded governor only
        lowers the stride so every pop closes a window)."""
        sink = InMemorySink()
        solver = Solver(cycles_program,
                        governor=ResourceGovernor(check_stride=1),
                        tracer=Tracer(sinks=(sink,)))
        solver.solve()
        assert solver._wave
        observed = [span.attrs["worklist"] for span in sink.find("stride")]
        assert observed and max(observed) > 0


# ----------------------------------------------------------------------
# Adaptive gating: detection must pay for itself
# ----------------------------------------------------------------------
class TestAdaptiveGate:
    """Unit tests for the creation-dominance verdict."""

    def test_window_burst_defers(self):
        gate = AdaptiveGate()
        gate.reset_baseline(100)
        # 4 fresh nodes x factor 16 >= 64 pops: still growing
        assert gate.creation_dominated(64, 104)

    def test_settled_graph_opens_gate(self):
        gate = AdaptiveGate()
        gate.reset_baseline(100)
        assert not gate.creation_dominated(64, 100)

    def test_cumulative_dominance_outlives_quiet_window(self):
        """A deep-context solve interns in bursts; a quiet window must
        not re-open the gate while creation still dominates the solve
        as a whole (the luindex/2obj shape)."""
        gate = AdaptiveGate()
        gate.reset_baseline(0)
        assert gate.creation_dominated(16, 10)   # burst: 10 nodes
        assert gate.creation_dominated(16, 10)   # quiet, but 160 >= 32

    def test_sustained_pops_drain_cumulative(self):
        """Once creation genuinely stops, accumulated pops drive the
        cumulative ratio down and the gate re-opens."""
        gate = AdaptiveGate()
        gate.reset_baseline(0)
        gate.creation_dominated(16, 4)
        verdicts = [gate.creation_dominated(16, 4) for _ in range(10)]
        assert False in verdicts
        assert not verdicts[-1]

    def test_baseline_excludes_construction(self):
        """Static-seed interning is not mid-solve creation: resetting
        at N and popping against a constant N is never dominated."""
        gate = AdaptiveGate()
        gate.creation_dominated(1, 5000)  # construction noise
        gate.reset_baseline(5000)
        assert not gate.creation_dominated(16, 5000)


class TestAdaptiveFifoRegression:
    """The regression of the first condensation change, pinned: on a
    luindex-shaped acyclic deep-context workload, the condensing solver
    must do **no more** pops than the uncondensed FIFO loop did before
    it was deleted (3,877) — the adaptive gate keeps mid-solve Tarjan
    passes off the hot path entirely (the up-front pass is the only
    one), and the ranking pass's topological seed order was all that
    differed from that loop."""

    @pytest.fixture(scope="class")
    def luindex(self):
        return load_profile("luindex", 0.25)

    def test_scc_on_does_not_exceed_off(self, luindex):
        on = Solver(luindex, selector_for("2obj"))
        on.solve()
        assert on.iterations <= 3_877
        # coalescing is where the win comes from on an acyclic graph
        assert on.counters["propagations_saved"] > 0
        # detection ran exactly once (up-front, doubling as the mode
        # decision); every stride gate deferred, nothing promoted
        assert on.counters["scc_passes"] == 1
        assert on.counters["scc_passes_deferred"] > 0
        assert on.counters["scc_promotions"] == 0
        assert on.counters["sccs_collapsed"] == 0


#: Acyclic seed graph; the copy cycle x -> v -> ret -> x only forms
#: once virtual dispatch of ``A.id`` resolves mid-solve.
MIDSOLVE_CYCLE_SOURCE = """
class A { method id(v) { return v; } }
main {
  a = new A();
  x = new Object();
  y = a.id(x);
  x = a.id(y);
}
"""


class TestFifoPromotion:
    def test_midsolve_cycle_promotes_to_wave(self):
        """With the dominance damper disabled (factor 0: a probe at
        every gate), a cycle formed mid-solve must promote the FIFO
        loop to wave scheduling and collapse — and the result must
        match the reference solver."""
        program = parse_program(MIDSOLVE_CYCLE_SOURCE)
        solver = Solver(program, governor=ResourceGovernor(check_stride=1))
        solver._adaptive = AdaptiveGate(dominance_factor=0)
        result = solver.solve()
        assert solver.counters["scc_promotions"] == 1
        assert solver.counters["sccs_collapsed"] >= 1
        assert solver.counters["scc_nodes_merged"] >= 2
        assert_matches_reference(program, result)

    def test_default_gate_defers_on_tiny_fixture(self):
        """Under the production dominance factor the same fixture stays
        creation-dominated throughout (a handful of pops against fresh
        dispatch nodes), so no probe ever runs: deferral is observable
        and correctness unaffected."""
        program = parse_program(MIDSOLVE_CYCLE_SOURCE)
        solver = Solver(program, governor=ResourceGovernor(check_stride=1))
        result = solver.solve()
        assert solver.counters["scc_passes"] == 1  # up-front only
        assert solver.counters["scc_passes_deferred"] > 0
        assert solver.counters["scc_promotions"] == 0
        assert_matches_reference(program, result)


def plan_program(profile, scale, seed=1):
    """A benchmark plan cell's program: the profile at ``scale`` with
    its generator seed drawn from the run seed, as ``perfbench/cells.py``
    (``seeded_program``) draws it."""
    spec = profile_spec(profile, scale)
    draw = random.Random(f"{seed}:{profile}").randrange(1, 2 ** 31)
    return generate(dataclasses.replace(spec, seed=draw))


class TestScheduleOnPlanCells:
    """Both loops stay on the default path: the copy-cycle cells of
    the benchmark's ``deep_context`` plan run in the wave loop, and an
    acyclic cell finishes in the FIFO loop it started in."""

    @pytest.mark.parametrize("scale, config", [(6.0, "ci"), (7.0, "2obj")])
    def test_cycles_cells_enter_wave_mode(self, scale, config):
        run = run_analysis(plan_program("cycles", scale), config)
        solver = run.result._solver
        assert solver._wave
        assert solver.counters["sccs_collapsed"] > 0

    def test_acyclic_cell_stays_fifo(self):
        run = run_analysis(plan_program("antlr", 1.0), "M-2obj")
        for solver in (run.pre.result._solver, run.result._solver):
            assert not solver._wave
            assert solver.counters["sccs_collapsed"] == 0
            assert solver.counters["scc_promotions"] == 0


# ----------------------------------------------------------------------
# The cycles workload knob
# ----------------------------------------------------------------------
class TestCyclesWorkload:
    def test_knob_defaults_off(self):
        spec = WorkloadSpec(name="plain", seed=1)
        program = generate(spec)
        assert not any("CycleHub" in name for name in program.classes)

    def test_profile_loads_and_scales(self):
        small = load_profile("cycles", 0.25)
        full = load_profile("cycles")
        assert small.stats()["statements"] < full.stats()["statements"]

    def test_cycle_density_dials_collapse(self, cycles_program):
        from dataclasses import replace

        sparse = generate(replace(CYCLES.scaled(0.5), name="sparse",
                                  cycle_chains=2, cycle_chain_length=4))
        dense_solver = Solver(cycles_program)
        dense_solver.solve()
        sparse_solver = Solver(sparse)
        sparse_solver.solve()
        assert (dense_solver.counters["scc_nodes_merged"]
                > sparse_solver.counters["scc_nodes_merged"])

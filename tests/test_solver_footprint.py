"""Objects a finished solve keeps alive for the cyclic garbage collector.

The solver keeps per-node state in flat int lists and one shared record
per frame, so a retained result holds few GC-tracked objects per node.
A ``[node, delta]`` worklist entry, an edge-dedup set or a metadata
tuple per node would each add about one.  The count matters because
tracked objects that survive a young collection are what trigger full
collections of the whole heap later in a run.

Each program is solved once first, so its slot tables
(``Program.frame_layouts``) and dispatch memo are warm, and only the
second result's objects are counted.  Only the ``cycles`` case
collapses anything.  The same cases check that nodes without edges
share the empty-successor sentinel and that the solver-wide edge set
equals the successor lists, collapse or not.
"""

from __future__ import annotations

import gc
import pickle
from dataclasses import replace

import pytest

from repro.incr import perturb_method, pick_editable_method
from repro.pta.context import selector_for
from repro.pta.results import PointsToResult
from repro.pta.solver import _NO_EDGES, Solver
from repro.serve.protocol import result_digest
from repro.workloads import generate, load_profile
from repro.workloads.profiles import profile_spec

#: tracked objects a retained result may hold per node
MAX_TRACKED_PER_NODE = 1.5

#: name -> (program factory, config)
CASES = {
    "pmd-2obj": (lambda: generate(replace(profile_spec("pmd", 0.3), seed=7)),
                 "2obj"),
    "antlr-ci": (lambda: load_profile("antlr", 0.5), "ci"),
    "cycles-ci-scc": (lambda: load_profile("cycles", 2.0), "ci"),
}


def solve_warm(name):
    """Solve the case's program twice; return the second solver and the
    number of tracked objects its result retains."""
    factory, config = CASES[name]
    program = factory()
    Solver(program, selector_for(config)).solve()
    gc.collect()
    before = len(gc.get_objects())
    result = Solver(program, selector_for(config)).solve()
    gc.collect()
    retained = len(gc.get_objects()) - before
    return result._solver, retained


@pytest.fixture(scope="module", params=sorted(CASES))
def warm(request):
    solver, retained = solve_warm(request.param)
    return request.param, solver, retained


def test_retained_objects_per_node(warm):
    name, solver, retained = warm
    nodes = len(solver._pts)
    assert nodes > 500, name
    assert retained <= MAX_TRACKED_PER_NODE * nodes, (
        name, retained, nodes, round(retained / nodes, 2))


def test_one_provenance_set_per_materialized_object(warm):
    """Reserved numbered slots get their allocation-site set only when
    their allocation is reached; a slot never reached has none, and
    ``object_sites`` reads it as empty."""
    name, solver, _ = warm
    live = set(solver._object_ids.values())
    sites = solver._object_alloc_sites
    assert {obj for obj, held in enumerate(sites) if held is not None} \
        == live, name
    assert all(sites[obj] for obj in live), name
    result = PointsToResult(solver)
    for obj in range(solver._numbering.count):
        if obj not in live:
            assert result.object_sites(obj) == frozenset(), (name, obj)


def test_edge_set_matches_successor_lists(warm):
    name, solver, _ = warm
    if name == "cycles-ci-scc":
        assert solver.counters["scc_nodes_merged"] > 0  # precondition
    parent = solver._uf.parent
    edges = set()
    for node, out in enumerate(solver._succs):
        if not out:
            assert out is _NO_EDGES, node
            continue
        # collapsed members hand their edges to the representative
        assert parent[node] == node, node
        edges.update((node, target, filter_class)
                     for target, filter_class in out)
    assert solver._edges == edges


def test_slot_tables_are_shared_and_not_pickled():
    factory, config = CASES["antlr-ci"]
    program = factory()
    Solver(program, selector_for(config)).solve()
    layouts = dict(program.frame_layouts)
    assert layouts  # precondition: the first solve built them
    Solver(program, selector_for("2obj")).solve()
    for key, layout in layouts.items():
        assert program.frame_layouts[key] is layout
    clone = pickle.loads(pickle.dumps(program))
    assert clone.frame_layouts == {}


def test_edited_clone_shares_slot_tables():
    """An edit clones every method; the clone reuses the slot tables of
    the methods it keeps, so an edit session does not hold a copy of
    every table per version, and its solve matches one that builds
    every table afresh."""
    program = load_profile("antlr", 0.5)
    Solver(program, selector_for("2obj")).solve()
    qname = pick_editable_method(program, seed=3, exclude_entry=True)
    edited = perturb_method(program, qname, seed=3)
    originals = {m.qualified_name: program.frame_layouts[id(m)]
                 for m in program.all_methods()
                 if id(m) in program.frame_layouts}
    assert qname in originals  # precondition: the edited method was solved
    for method in edited.all_methods():
        layout = edited.frame_layouts.get(id(method))
        if method.qualified_name == qname:
            assert layout is None
        else:
            assert layout is originals.get(method.qualified_name)
    shared = Solver(edited, selector_for("2obj")).solve()
    rebuilt = Solver(pickle.loads(pickle.dumps(edited)),
                     selector_for("2obj")).solve()
    assert result_digest(shared) == result_digest(rebuilt)

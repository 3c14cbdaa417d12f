"""Section 2.1 motivating benchmark: pmd under 3obj / T-3obj / M-3obj.

The pytest-benchmark group "motivating-pmd" is the paper's opening
comparison in miniature: T-3obj fastest, M-3obj close behind, 3obj far
slower — while M-3obj's call graph matches 3obj's and T-3obj's is
larger (less precise).
"""

from __future__ import annotations

import pytest

from repro.clients import build_call_graph
from repro.pta.context import selector_for
from repro.pta.heapmodel import AllocationSiteAbstraction, AllocationTypeAbstraction
from repro.pta.solver import Solver

from benchmarks.conftest import pre_for, program_for

SCALE = 0.4
_EDGES = {}


def _run(program, heap_model):
    return Solver(program, selector_for("3obj"), heap_model).solve()


def test_3obj_baseline(benchmark):
    program = program_for("pmd", SCALE)
    benchmark.group = "motivating-pmd"
    result = benchmark.pedantic(
        lambda: _run(program, AllocationSiteAbstraction()),
        rounds=2, iterations=1,
    )
    _EDGES["3obj"] = build_call_graph(result).edge_count


def test_t_3obj(benchmark):
    program = program_for("pmd", SCALE)
    benchmark.group = "motivating-pmd"
    result = benchmark.pedantic(
        lambda: _run(program, AllocationTypeAbstraction(program)),
        rounds=2, iterations=1,
    )
    _EDGES["T-3obj"] = build_call_graph(result).edge_count


def test_m_3obj(benchmark):
    program = program_for("pmd", SCALE)
    pre = pre_for("pmd", SCALE)
    benchmark.group = "motivating-pmd"
    result = benchmark.pedantic(
        lambda: _run(program, pre.abstraction),
        rounds=2, iterations=1,
    )
    _EDGES["M-3obj"] = build_call_graph(result).edge_count


def test_precision_shape():
    """Runs last: M-3obj matches 3obj exactly; T-3obj is less precise."""
    assert set(_EDGES) == {"3obj", "T-3obj", "M-3obj"}
    assert _EDGES["M-3obj"] == _EDGES["3obj"]
    assert _EDGES["T-3obj"] > _EDGES["3obj"]

"""Table 2 benchmarks: main-analysis time per configuration.

One benchmark per (tier-1 profile × analysis configuration).  The
pytest-benchmark comparison table is the scaled-down Table 2: within a
group (one profile + context-sensitivity), the MAHJONG variant should be
markedly faster than its baseline, and the allocation-type variant
fastest of all.  Client-precision equality between kA and M-kA is
asserted alongside.
"""

from __future__ import annotations

import pytest

from repro.analysis.pipeline import run_analysis
from repro.pta.heapmodel import AllocationSiteAbstraction, AllocationTypeAbstraction
from repro.pta.context import selector_for
from repro.pta.solver import Solver

from benchmarks.conftest import pre_for, program_for

PROFILES = ["luindex", "antlr"]
BASELINES = ["2cs", "2obj", "3obj", "2type", "3type"]


def _solve(program, sensitivity, heap_model):
    return Solver(program, selector_for(sensitivity), heap_model).solve()


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("baseline", BASELINES)
def test_baseline_analysis(benchmark, profile, baseline):
    program = program_for(profile)
    benchmark.group = f"table2-{profile}-{baseline}"
    result = benchmark(
        lambda: _solve(program, baseline, AllocationSiteAbstraction())
    )
    assert result.reachable_methods()


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("baseline", BASELINES)
def test_mahjong_analysis(benchmark, profile, baseline):
    program = program_for(profile)
    pre = pre_for(profile)
    benchmark.group = f"table2-{profile}-{baseline}"
    result = benchmark(
        lambda: _solve(program, baseline, pre.abstraction)
    )
    assert result.reachable_methods()


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("baseline", ["2obj", "3obj"])
def test_alloc_type_analysis(benchmark, profile, baseline):
    program = program_for(profile)
    benchmark.group = f"table2-{profile}-{baseline}"
    result = benchmark(
        lambda: _solve(program, baseline, AllocationTypeAbstraction(program))
    )
    assert result.reachable_methods()


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("baseline", BASELINES)
def test_precision_equality_of_mahjong(benchmark, profile, baseline):
    """Not a timing benchmark per se: asserts the Table 2 precision
    columns (kA == M-kA for all three clients) while timing the combined
    pair for the record."""
    program = program_for(profile)
    pre = pre_for(profile)

    def both():
        base = run_analysis(program, baseline, timeout_seconds=600)
        mahjong = run_analysis(program, f"M-{baseline}",
                               timeout_seconds=600, pre=pre)
        return base.metrics(), mahjong.metrics()

    benchmark.group = f"table2-precision-{profile}"
    base_metrics, mahjong_metrics = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    for metric in ("call_graph_edges", "poly_call_sites", "may_fail_casts"):
        assert base_metrics[metric] == mahjong_metrics[metric]

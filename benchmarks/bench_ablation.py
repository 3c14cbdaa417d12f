"""Ablation benchmarks for the merging engine's design choices.

Groups compare, on one FPG:

* ``ablation-sharing`` — shared automata vs explicit per-pair NFA/DFA
  construction (the Section 5 optimization);
* ``ablation-disjoint-sets`` — union-by-rank + path compression vs the
  naive forest.
"""

from __future__ import annotations

import pytest

from repro.bench.ablation import merge_without_sharing
from repro.core.disjoint_sets import DisjointSets, NaiveDisjointSets
from repro.core.merging import merge_type_consistent_objects

from benchmarks.conftest import pre_for

PROFILE = "luindex"


def test_sharing_enabled(benchmark):
    pre = pre_for(PROFILE)
    benchmark.group = "ablation-sharing"
    result = benchmark(
        lambda: merge_type_consistent_objects(pre.fpg).mom
    )
    assert result


def test_sharing_disabled(benchmark):
    pre = pre_for(PROFILE)
    benchmark.group = "ablation-sharing"
    mom = benchmark.pedantic(
        lambda: merge_without_sharing(pre.fpg), rounds=2, iterations=1
    )
    # the unshared baseline computes the same quotient
    shared_mom = merge_type_consistent_objects(pre.fpg).mom
    classes_of = lambda m: sorted(
        tuple(sorted(o for o in m if m[o] == rep)) for rep in set(m.values())
    )
    assert classes_of(mom) == classes_of(shared_mom)


def _union_workload(pre):
    base = merge_type_consistent_objects(pre.fpg)
    return [
        (min(cls), obj)
        for cls in base.classes
        for obj in cls
        if obj != min(cls)
    ]


@pytest.mark.parametrize("cls", [DisjointSets, NaiveDisjointSets],
                         ids=["rank+compression", "naive"])
def test_disjoint_sets(benchmark, cls):
    pre = pre_for(PROFILE)
    pairs = _union_workload(pre)
    objects = list(pre.fpg.objects())
    benchmark.group = "ablation-disjoint-sets"

    def run():
        sets = cls(objects)
        for a, b in pairs:
            sets.union(a, b)
        return sum(1 for obj in objects if sets.find(obj) == obj)

    roots = benchmark(run)
    assert roots > 0

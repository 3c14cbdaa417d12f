"""Sharded batch runner benchmark.

Mirrors ``python -m repro.bench parallel`` under pytest-benchmark: the
corpus batch serial vs sharded.  Absolute speedups depend on host cores
(recorded by the standalone harness in ``bench_results/parallel.txt``);
here the suite mainly guards against regressions in the serial path and
pathological pool overhead.
"""

from __future__ import annotations

import pytest

from repro.workloads import corpus_names, corpus_program


@pytest.mark.parametrize("jobs", [None, 2], ids=["serial", "jobs2"])
def test_batch_sharding(benchmark, jobs):
    from repro.bench.batch import run_batch

    programs = [(name, corpus_program(name)) for name in corpus_names()]
    benchmark.group = "parallel-batch"
    result = benchmark(
        lambda: run_batch(list(programs), config="M-2obj", jobs=jobs))
    assert result.all_usable
    assert [r.program for r in result.records] == [n for n, _ in programs]

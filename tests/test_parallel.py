"""The batch runner's worker-count and pickling helpers, the
deterministic seed derivation its programs use, and the pickling
hygiene of every payload that crosses its process pool."""

import os
import pickle

import pytest

from repro.analysis.governor import GovernorSpec
from repro.bench.batch import _CorpusSource, run_batch
from repro.bench.batch import _picklable as picklable
from repro.bench.batch import _resolve_jobs as resolve_jobs
from repro.core.merging import merge_type_consistent_objects
from repro.faults import derive_seed
from repro.workloads.corpus import corpus_names, corpus_program


class TestResolveJobs:
    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    def test_zero_means_per_core(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_clamped_to_one(self):
        assert resolve_jobs(-4) == 1


class TestParallelMap:
    def test_process_pool_preserves_order(self):
        """Picklable sources go to the process pool and unpicklable
        ones run in the parent afterwards; interleaving the two kinds
        still gives the records back in input order."""
        names = list(corpus_names())[:4]
        sources = [
            (name, _CorpusSource(name) if i % 2 == 0
             else (lambda name=name: corpus_program(name)))
            for i, name in enumerate(names)
        ]
        assert [picklable(source) for _, source in sources] \
            == [True, False, True, False]
        result = run_batch(sources, jobs=2)
        assert [r.program for r in result.records] == names
        assert result.all_usable


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(7, "cache") == derive_seed(7, "cache")

    def test_name_sensitive(self):
        assert derive_seed(7, "cache") != derive_seed(7, "iterator")

    def test_seed_sensitive(self):
        assert derive_seed(7, "cache") != derive_seed(8, "cache")


class TestPicklable:
    def test_plain_values(self):
        assert picklable((1, "a", [2.0]))

    def test_lambda_is_not(self):
        assert not picklable(lambda: 1)


class TestGovernorSpec:
    def test_unbounded_builds_nothing(self):
        spec = GovernorSpec()
        assert not spec.bounded
        assert spec.build() is None

    def test_bounded_builds_governor(self):
        spec = GovernorSpec(max_iterations=10, check_stride=1)
        assert spec.bounded
        governor = spec.build()
        assert governor is not None

    def test_slice_divides_memory_only(self):
        spec = GovernorSpec(wall_seconds=2.0, memory_mb=64.0,
                            max_iterations=100)
        sliced = spec.slice(4)
        assert sliced.memory_mb == 16.0
        # per-program axes pass through untouched
        assert sliced.wall_seconds == 2.0
        assert sliced.max_iterations == 100

    def test_slice_one_worker_is_identity(self):
        spec = GovernorSpec(memory_mb=64.0)
        assert spec.slice(1) is spec

    def test_spec_is_picklable(self):
        spec = GovernorSpec(memory_mb=32.0, max_iterations=5)
        assert pickle.loads(pickle.dumps(spec)) == spec


@pytest.fixture(scope="module")
def antlr_fpg():
    from repro.analysis.pipeline import run_pre_analysis
    from repro.workloads import load_profile

    return run_pre_analysis(load_profile("antlr", 0.3)).fpg


def _canon(result):
    return sorted(tuple(sorted(cls)) for cls in result.classes)


class TestPickleRoundTrips:
    """Worker payloads (programs, configs, graphs) must survive the
    process-pool pickle trip, with derived memo caches dropped."""

    def test_program_round_trip(self):
        from repro.workloads import corpus_program

        program = corpus_program("cache")
        # warm the dispatch memo, then check it is not shipped
        entry = program.entry
        assert entry is not None
        clone = pickle.loads(pickle.dumps(program))
        assert clone._dispatch_cache == {}
        assert sorted(clone.classes) == sorted(program.classes)
        assert clone.stats() == program.stats()

    def test_program_dispatch_cache_not_shipped(self):
        from repro.workloads import corpus_program

        program = corpus_program("iterator")
        from repro.pta.solver import Solver

        Solver(program).solve()  # warms the dispatch memo
        assert program._dispatch_cache  # precondition: memo is warm
        clone = pickle.loads(pickle.dumps(program))
        assert clone._dispatch_cache == {}
        # the clone still dispatches correctly (memo rebuilds lazily)
        clone_result = Solver(clone).solve()
        base_result = Solver(program).solve()
        assert (sorted(clone_result.call_graph_edges())
                == sorted(base_result.call_graph_edges()))

    def test_hierarchy_subtype_cache_not_shipped(self):
        from repro.workloads import corpus_program

        program = corpus_program("cache")
        hierarchy = program.hierarchy
        names = [cls.name for cls in hierarchy]
        hierarchy.is_subtype_names(names[-1], names[0])
        assert hierarchy._subtype_name_cache  # precondition: memo is warm
        clone = pickle.loads(pickle.dumps(hierarchy))
        assert clone._subtype_name_cache == {}
        assert sorted(cls.name for cls in clone) == sorted(names)
        # the clone still answers subtype queries (memo rebuilds lazily)
        for sub in names:
            for sup in names:
                assert (clone.is_subtype_names(sub, sup)
                        == hierarchy.is_subtype_names(sub, sup))

    def test_analysis_config_round_trip(self):
        from repro.analysis.config import parse_config

        config = parse_config("M-2obj")
        assert pickle.loads(pickle.dumps(config)) == config
        config = parse_config("T-2type")
        assert pickle.loads(pickle.dumps(config)) == config

    def test_filter_masks_round_trip_rebuild(self):
        """Mask caches are derived state: a worker receiving a pickled
        solver payload must get lean masks that rebuild identically
        (the deep checks live in tests/test_numbering.py)."""
        from repro.pta.bitset import RangeFilterMasks
        from repro.pta.solver import Solver
        from repro.workloads import corpus_program

        program = corpus_program("cache")
        solver = Solver(program)
        solver.solve()
        masks = solver._filter_masks
        assert isinstance(masks, RangeFilterMasks)
        warm = {c: masks.mask_for(c) for c in program.classes}
        clone = pickle.loads(pickle.dumps(masks))
        assert len(clone) == 0
        assert {c: clone.mask_for(c) for c in program.classes} == warm

    def test_fpg_round_trip(self, antlr_fpg):
        clone = pickle.loads(pickle.dumps(antlr_fpg))
        assert sorted(clone.objects()) == sorted(antlr_fpg.objects())
        for obj in antlr_fpg.objects():
            assert clone.type_of(obj) == antlr_fpg.type_of(obj)
            assert (sorted(clone.fields_of(obj))
                    == sorted(antlr_fpg.fields_of(obj)))

    def test_merge_result_round_trip(self, antlr_fpg):
        result = merge_type_consistent_objects(antlr_fpg)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.mom == result.mom
        assert _canon(clone) == _canon(result)


class TestTraceEventWire:
    def test_events_round_trip_through_dicts(self):
        from repro import obs

        sink = obs.InMemorySink()
        tracer = obs.Tracer(sinks=(sink,))
        span = tracer.begin("phase:merge", config="M-2obj")
        tracer.instant("fault", point="merge-boundary")
        tracer.end(span, outcome="ok")
        payloads = obs.events_to_dicts(sink.events)
        assert picklable(payloads)
        rebuilt = obs.events_from_dicts(payloads)
        assert obs.events_to_dicts(rebuilt) == payloads
        assert [e.kind for e in rebuilt] \
            == [e.kind for e in sink.events]

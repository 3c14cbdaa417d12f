"""The parallel execution layer: job resolution, sharding, pool
dispatch, pickling hygiene, and serial/parallel result identity."""

import pickle

import pytest

from repro.analysis.governor import GovernorSpec
from repro.core.merging import MergeOptions, merge_type_consistent_objects
from repro.core.pathcheck import type_consistent_matrix
from repro.parallel import (
    JOBS_ENV_VAR,
    balanced_shards,
    derive_seed,
    parallel_map,
    picklable,
    resolve_jobs,
)


class TestResolveJobs:
    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    def test_default_when_unset(self):
        assert resolve_jobs(None, default=1, environ={}) == 1
        assert resolve_jobs(None, default=5, environ={}) == 5

    def test_env_var_consulted(self):
        assert resolve_jobs(None, environ={JOBS_ENV_VAR: "4"}) == 4

    def test_explicit_overrides_env(self):
        assert resolve_jobs(2, environ={JOBS_ENV_VAR: "8"}) == 2

    def test_zero_means_per_core(self):
        assert resolve_jobs(0) >= 1

    def test_env_zero_means_per_core(self):
        assert resolve_jobs(None, environ={JOBS_ENV_VAR: "0"}) >= 1

    def test_negative_clamped_to_one(self):
        assert resolve_jobs(-4) == 1

    def test_garbage_env_raises(self):
        with pytest.raises(ValueError, match="must be an integer"):
            resolve_jobs(None, environ={JOBS_ENV_VAR: "many"})


class TestBalancedShards:
    def test_fewer_items_than_shards(self):
        assert balanced_shards([1, 2], 8) == [[1], [2]]

    def test_empty(self):
        assert balanced_shards([], 4) == []

    def test_single_shard_keeps_order(self):
        assert balanced_shards([3, 1, 2], 1) == [3, 1, 2][:0] + [[3, 1, 2]]

    def test_weights_balance(self):
        items = [10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
        shards = balanced_shards(items, 2, weight=lambda x: x)
        loads = sorted(sum(s) for s in shards)
        assert loads == [10, 10]

    def test_deterministic(self):
        items = list(range(20))
        a = balanced_shards(items, 3, weight=lambda x: x % 5)
        b = balanced_shards(items, 3, weight=lambda x: x % 5)
        assert a == b

    def test_input_order_within_shard(self):
        for shard in balanced_shards(list(range(17)), 4):
            assert shard == sorted(shard)

    def test_nothing_lost_or_duplicated(self):
        items = list(range(23))
        shards = balanced_shards(items, 5, weight=lambda x: x)
        assert sorted(x for s in shards for x in s) == items

    def test_nonpositive_shards_raise(self):
        with pytest.raises(ValueError):
            balanced_shards([1], 0)


def _double(x):
    return 2 * x


class TestParallelMap:
    def test_serial_inline(self):
        assert parallel_map(_double, [1, 2, 3], jobs=1) == [2, 4, 6]

    def test_thread_pool_preserves_order(self):
        assert parallel_map(_double, list(range(20)), jobs=4) \
            == [2 * i for i in range(20)]

    def test_process_pool_preserves_order(self):
        assert parallel_map(_double, list(range(6)), jobs=2,
                            pool="process") == [0, 2, 4, 6, 8, 10]

    def test_unknown_pool_rejected(self):
        with pytest.raises(ValueError, match="unknown pool"):
            parallel_map(_double, [1], jobs=2, pool="fiber")

    def test_worker_exception_propagates(self):
        def boom(x):
            raise RuntimeError(f"item {x}")

        with pytest.raises(RuntimeError, match="item"):
            parallel_map(boom, [1, 2], jobs=2)


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
def spectrum_fpg():
    from repro.analysis.pipeline import run_pre_analysis
    from repro.workloads import load_profile

    return run_pre_analysis(load_profile("antlr", 0.3)).fpg


def _canon(result):
    return sorted(tuple(sorted(cls)) for cls in result.classes)


class TestParallelMerge:
    """The parallel merge phase produces the serial quotient exactly,
    for every pool kind and worker count."""

    def test_thread_pool_identical(self, spectrum_fpg):
        serial = merge_type_consistent_objects(spectrum_fpg)
        threaded = merge_type_consistent_objects(
            spectrum_fpg, MergeOptions(jobs=4, pool="thread"))
        assert _canon(serial) == _canon(threaded)
        assert serial.mom == threaded.mom
        assert serial.equivalence_tests == threaded.equivalence_tests

    def test_process_pool_identical(self, spectrum_fpg):
        serial = merge_type_consistent_objects(spectrum_fpg)
        remote = merge_type_consistent_objects(
            spectrum_fpg, MergeOptions(jobs=2, pool="process"))
        assert _canon(serial) == _canon(remote)
        assert serial.mom == remote.mom
        assert serial.equivalence_tests == remote.equivalence_tests

    def test_paper_parallel_flag_identical(self, spectrum_fpg):
        serial = merge_type_consistent_objects(spectrum_fpg)
        paper = merge_type_consistent_objects(
            spectrum_fpg, MergeOptions(parallel=True))
        assert _canon(serial) == _canon(paper)

    def test_jobs_precedence(self, monkeypatch):
        assert MergeOptions(jobs=3).resolved_jobs() == 3
        assert MergeOptions(parallel=True).resolved_jobs() == 8
        assert MergeOptions(parallel=True, jobs=2).resolved_jobs() == 2
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert MergeOptions().resolved_jobs() == 1
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert MergeOptions().resolved_jobs() == 5

    def test_env_var_activates_parallel_merge(self, monkeypatch,
                                              spectrum_fpg):
        serial = merge_type_consistent_objects(spectrum_fpg)
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        via_env = merge_type_consistent_objects(spectrum_fpg)
        assert _canon(serial) == _canon(via_env)

    def test_bad_pool_rejected(self):
        with pytest.raises(ValueError, match="unknown pool"):
            MergeOptions(pool="fiber")


class TestParallelMatrix:
    def test_matrix_identical_across_pools(self, spectrum_fpg):
        objs = sorted(spectrum_fpg.objects())[:6]
        serial = type_consistent_matrix(spectrum_fpg, objs, 3)
        threaded = type_consistent_matrix(spectrum_fpg, objs, 3,
                                          jobs=3, pool="thread")
        remote = type_consistent_matrix(spectrum_fpg, objs, 3,
                                        jobs=2, pool="process")
        assert serial == threaded == remote
        assert len(serial) == len(objs) * (len(objs) - 1) // 2

    def test_matrix_agrees_with_pairwise_oracle(self, spectrum_fpg):
        from repro.core.pathcheck import type_consistent_by_paths

        objs = sorted(spectrum_fpg.objects())[:5]
        matrix = type_consistent_matrix(spectrum_fpg, objs, 2, jobs=2)
        for (oi, oj), verdict in matrix.items():
            assert verdict == type_consistent_by_paths(
                spectrum_fpg, oi, oj, 2)


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

        config = parse_config("M-2obj@scc")
        assert pickle.loads(pickle.dumps(config)) == config
        config = parse_config("2obj@noscc")
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

    def test_fpg_round_trip(self, spectrum_fpg):
        clone = pickle.loads(pickle.dumps(spectrum_fpg))
        assert sorted(clone.objects()) == sorted(spectrum_fpg.objects())
        for obj in spectrum_fpg.objects():
            assert clone.type_of(obj) == spectrum_fpg.type_of(obj)
            assert (sorted(clone.fields_of(obj))
                    == sorted(spectrum_fpg.fields_of(obj)))

    def test_merge_result_round_trip(self, spectrum_fpg):
        result = merge_type_consistent_objects(spectrum_fpg)
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


class TestDifferentialSerialVsParallel:
    """Parallel and serial merges produce identical analysis results."""

    def test_full_analysis_identical(self):
        from repro.analysis.pipeline import run_analysis
        from repro.workloads import load_profile

        program = load_profile("chart", 0.3)

        def facts(merge_options):
            run = run_analysis(program, "M-2obj",
                               merge_options=merge_options)
            metrics = dict(run.metrics())
            metrics.pop("main_seconds", None)
            metrics.pop("pre_seconds", None)
            return metrics

        serial = facts(None)
        threaded = facts(MergeOptions(jobs=4, pool="thread"))
        remote = facts(MergeOptions(jobs=2, pool="process"))
        assert serial == threaded == remote

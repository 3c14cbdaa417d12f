"""Unit and property tests for the merging engine (Algorithm 1)."""

import pytest
from hypothesis import given, settings

from repro.core.fpg import NULL_OBJECT, FieldPointsToGraph
from repro.core.merging import (
    MergeOptions,
    merge_type_consistent_objects,
)
from repro.core.pathcheck import type_consistent_by_paths

from tests.merge_oracle import all_pairs_classes
from tests.strategies import dag_field_points_to_graphs, field_points_to_graphs


def classes_of(result):
    return sorted(tuple(sorted(c)) for c in result.classes)


def homogeneous_groups_fpg():
    """Two groups of containers: sites 1-3 store X, sites 4-5 store Y."""
    fpg = FieldPointsToGraph()
    payload = 10
    for obj in (1, 2, 3, 4, 5):
        fpg.add_object(obj, "Box")
    for i, payload_type in [(1, "X"), (2, "X"), (3, "X"), (4, "Y"), (5, "Y")]:
        fpg.add_object(payload, payload_type)
        fpg.add_edge(i, "elem", payload)
        payload += 1
    return fpg


class TestMergeBehaviour:
    def test_groups_merge_by_stored_type(self):
        result = merge_type_consistent_objects(homogeneous_groups_fpg())
        assert (1, 2, 3) in classes_of(result)
        assert (4, 5) in classes_of(result)

    def test_mom_maps_to_in_class_representative(self):
        result = merge_type_consistent_objects(homogeneous_groups_fpg())
        for obj, representative in result.mom.items():
            assert representative in result.class_of(obj)

    def test_mom_is_idempotent(self):
        result = merge_type_consistent_objects(homogeneous_groups_fpg())
        for representative in result.mom.values():
            assert result.mom[representative] == representative

    def test_null_object_never_in_mom(self):
        fpg = homogeneous_groups_fpg()
        fpg.add_null_field(10, "f")
        result = merge_type_consistent_objects(fpg)
        assert NULL_OBJECT not in result.mom

    def test_counts_and_reduction(self):
        result = merge_type_consistent_objects(homogeneous_groups_fpg())
        assert result.object_count_before == 10
        # classes: {1,2,3}, {4,5}, {X payloads 10,11,12}, {Y payloads 13,14}
        assert result.object_count_after == 4
        assert result.reduction == pytest.approx(0.6)

    def test_histogram(self):
        result = merge_type_consistent_objects(homogeneous_groups_fpg())
        assert result.class_size_histogram() == {3: 2, 2: 2}

    def test_empty_fpg(self):
        result = merge_type_consistent_objects(FieldPointsToGraph())
        assert result.mom == {}
        assert result.classes == []
        assert result.reduction == 0.0

    def test_representative_policy(self):
        fpg = homogeneous_groups_fpg()
        low = merge_type_consistent_objects(
            fpg, MergeOptions(representative_policy="min_site"))
        high = merge_type_consistent_objects(
            fpg, MergeOptions(representative_policy="max_site"))
        assert low.mom[2] == 1
        assert high.mom[2] == 3
        assert classes_of(low) == classes_of(high)

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            MergeOptions(representative_policy="coin_flip")


class TestEquivalenceRelationProperties:
    @given(field_points_to_graphs(max_objects=8))
    @settings(max_examples=60, deadline=None)
    def test_classes_partition_objects(self, fpg):
        result = merge_type_consistent_objects(fpg)
        seen = set()
        for cls in result.classes:
            assert not (cls & seen)
            seen |= cls
        assert seen == set(fpg.objects())

    @given(field_points_to_graphs(max_objects=8))
    @settings(max_examples=60, deadline=None)
    def test_merged_objects_share_a_type(self, fpg):
        result = merge_type_consistent_objects(fpg)
        for cls in result.classes:
            assert len({fpg.type_of(o) for o in cls}) == 1

    @given(field_points_to_graphs(max_objects=7))
    @settings(max_examples=40, deadline=None)
    def test_strategies_produce_identical_quotients(self, fpg):
        """The representatives loop gives the quotient of the literal
        all-pairs Algorithm 1 (``tests/merge_oracle.py``)."""
        rep = merge_type_consistent_objects(fpg)
        allp = all_pairs_classes(fpg)
        assert classes_of(rep) == sorted(tuple(sorted(c)) for c in allp)


class TestAgainstDefinitionOracle:
    @given(dag_field_points_to_graphs(max_objects=6))
    @settings(max_examples=60, deadline=None)
    def test_quotient_matches_definition_2_1_on_dags(self, fpg):
        """On acyclic FPGs the automata reduction must agree exactly with
        the literal Definition 2.1 path-enumeration check."""
        result = merge_type_consistent_objects(fpg)
        depth_bound = len(fpg) + 1
        objs = sorted(fpg.objects())
        merged = {}
        for cls in result.classes:
            for obj in cls:
                merged[obj] = min(cls)
        for i, oi in enumerate(objs):
            for oj in objs[i + 1:]:
                if fpg.type_of(oi) != fpg.type_of(oj):
                    continue
                expected = type_consistent_by_paths(fpg, oi, oj, depth_bound)
                assert (merged[oi] == merged[oj]) == expected, (oi, oj)

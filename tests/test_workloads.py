"""Tests for the synthetic workload generator and profiles."""

import pytest

from repro.analysis import run_pre_analysis
from repro.ir.validate import validate
from repro.workloads import (
    PROFILE_NAMES,
    PROFILES,
    TINY,
    WorkloadSpec,
    generate,
    load_profile,
    profile_spec,
)


class TestDeterminism:
    def test_same_spec_same_program(self):
        a = generate(TINY)
        b = generate(TINY)
        from repro.ir.printer import print_program

        assert print_program(a) == print_program(b)

    def test_different_seed_different_program(self):
        from dataclasses import replace

        from repro.ir.printer import print_program

        a = generate(TINY)
        b = generate(replace(TINY, seed=TINY.seed + 1))
        assert print_program(a) != print_program(b)


class TestWellFormedness:
    def test_tiny_program_validates(self, tiny_program):
        assert validate(tiny_program) == []

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_profiles_validate_at_reduced_scale(self, name):
        program = load_profile(name, scale=0.2)
        assert validate(program) == []

    def test_all_drivers_reachable(self, tiny_program):
        pre = run_pre_analysis(tiny_program)
        reachable = pre.result.reachable_methods()
        driver_methods = {
            m.qualified_name
            for m in tiny_program.all_methods()
            if m.is_static and m.class_name != "<Main>"
        }
        assert driver_methods <= reachable


class TestProfiles:
    def test_twelve_profiles_matching_the_paper(self):
        assert len(PROFILES) == 12
        assert set(PROFILE_NAMES) == {
            "antlr", "bloat", "chart", "eclipse", "fop", "luindex",
            "lusearch", "pmd", "xalan", "checkstyle", "findbugs", "jpc",
        }

    def test_profile_spec_lookup(self):
        assert profile_spec("pmd").name == "pmd"
        assert profile_spec("tiny") is TINY

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            profile_spec("dacapo")

    def test_retired_spectrum_profile_rejected(self):
        """The wide-type stressor fed only the deleted merge pools."""
        with pytest.raises(ValueError, match="unknown profile"):
            load_profile("spectrum")

    def test_scaling_changes_site_counts(self):
        small = load_profile("luindex", scale=0.3)
        full = load_profile("luindex", scale=1.0)
        assert small.stats()["alloc_sites"] < full.stats()["alloc_sites"]

    def test_scaled_spec_preserves_structure(self):
        spec = profile_spec("pmd", scale=0.5)
        assert spec.kernel_depth == PROFILES["pmd"].kernel_depth
        assert spec.kernel_fanout == PROFILES["pmd"].kernel_fanout
        assert spec.box_groups < PROFILES["pmd"].box_groups

    def test_tier3_profiles_block_kernel_merging(self):
        for name in ("eclipse", "findbugs", "jpc"):
            assert PROFILES[name].kernel_poly_payloads
        for name in ("pmd", "antlr", "checkstyle"):
            assert not PROFILES[name].kernel_poly_payloads


class TestHeapShape:
    def test_string_builders_all_merge(self):
        pre = run_pre_analysis(load_profile("checkstyle", scale=0.3))
        fpg = pre.fpg
        sb_sites = {o for o in fpg.objects() if fpg.type_of(o) == "StringBuilder"}
        representatives = {pre.merge.mom[s] for s in sb_sites}
        assert len(sb_sites) > 1
        assert len(representatives) == 1

    def test_mixed_boxes_stay_separate(self):
        spec = WorkloadSpec(
            name="mixonly", seed=3, element_classes=4, box_groups=0,
            box_sites_per_group=0, mixed_boxes=5, list_groups=0,
            list_sites_per_group=0, null_objects=0,
            kernel_receiver_sites=0, factory_subtypes=0, poly_call_sites=0,
            unique_records=0,
        )
        pre = run_pre_analysis(generate(spec))
        fpg = pre.fpg
        array_sites = {
            o for o in fpg.objects() if fpg.type_of(o) == "ObjectArray"
        }
        for site in array_sites:
            assert pre.merge.mom[site] == site  # nothing merges

    def test_homogeneous_groups_merge_per_group(self):
        spec = WorkloadSpec(
            name="homog", seed=3, element_classes=3, box_groups=2,
            box_sites_per_group=4, mixed_boxes=0, list_groups=0,
            list_sites_per_group=0, null_objects=0,
            kernel_receiver_sites=0, factory_subtypes=0, poly_call_sites=0,
            unique_records=0, with_strings=False,
        )
        pre = run_pre_analysis(generate(spec))
        fpg = pre.fpg
        box_sites = {o for o in fpg.objects() if fpg.type_of(o) == "Box"}
        representatives = {pre.merge.mom[s] for s in box_sites}
        assert len(box_sites) == 8
        assert len(representatives) == 2  # one class per element group

    def test_unique_records_are_singletons(self):
        spec = WorkloadSpec(
            name="recs", seed=3, element_classes=3, box_groups=0,
            box_sites_per_group=0, mixed_boxes=0, list_groups=0,
            list_sites_per_group=0, null_objects=0,
            kernel_receiver_sites=0, factory_subtypes=0, poly_call_sites=0,
            unique_records=10,
        )
        pre = run_pre_analysis(generate(spec))
        fpg = pre.fpg
        record_sites = {
            o for o in fpg.objects() if fpg.type_of(o).startswith("Record")
        }
        assert len(record_sites) == 10
        for site in record_sites:
            assert pre.merge.mom[site] == site

"""Cross-cutting integration checks."""

import importlib
import pkgutil

import pytest

import repro


class TestImportSurface:
    def test_every_module_imports(self):
        """No module has import-time errors or dead imports that crash."""
        failures = []
        for module_info in pkgutil.walk_packages(repro.__path__,
                                                 prefix="repro."):
            if module_info.name.endswith("__main__"):
                continue
            try:
                importlib.import_module(module_info.name)
            except Exception as error:  # pragma: no cover - diagnostic
                failures.append((module_info.name, error))
        assert failures == []

    def test_package_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None or name == "run_analysis"


class TestSolverCounters:
    def test_counters_present_and_consistent(self, tiny_program):
        from repro.pta import solve

        # facts-propagated ≥ pts-facts is a FIFO-loop invariant (a
        # collapse pass reseeds whole merged points-to sets through the
        # wave loop); the tiny program is acyclic, so it stays in FIFO
        result = solve(tiny_program)
        stats = result.stats()
        assert stats["count_sccs_collapsed"] == 0
        assert stats["count_facts_propagated"] >= stats["pts_facts"]
        assert stats["count_copy_edges"] > 0
        assert stats["count_dispatch_attempts"] > 0

    def test_condensed_solve_same_facts(self, tiny_program):
        from repro.analysis.governor import ResourceGovernor
        from repro.pta import solve

        condensed = solve(tiny_program).stats()
        forced = solve(tiny_program,
                       governor=ResourceGovernor(check_stride=1)).stats()
        assert condensed["pts_facts"] == forced["pts_facts"]
        assert forced["count_scc_passes_deferred"] > 0  # gate ran per pop

    def test_merged_heap_does_less_work(self, tiny_program):
        from repro.analysis import run_analysis, run_pre_analysis

        pre = run_pre_analysis(tiny_program)
        base = run_analysis(tiny_program, "2obj").result.stats()
        merged = run_analysis(tiny_program, "M-2obj",
                              pre=pre).result.stats()
        assert merged["count_facts_propagated"] <= \
            base["count_facts_propagated"]

    def test_solve_counts_its_work(self, figure1_program):
        from repro.pta import Solver

        stats = Solver(figure1_program).solve().stats()
        assert stats["iterations"] > 0
        assert stats["count_facts_propagated"] > 0
        assert stats["nodes"] > 0
        assert stats["pts_facts"] > 0

    def test_pipeline_counts_both_solves_and_automata(self, figure1_program):
        from repro.analysis import run_analysis, run_pre_analysis

        pre = run_pre_analysis(figure1_program)
        assert pre.result.stats()["iterations"] > 0
        # the merge's SharedAutomata.state_count()
        assert pre.merge.shared_states > 0
        run = run_analysis(figure1_program, "M-2obj", pre=pre)
        assert run.result.stats()["iterations"] > 0


class TestCompareHarness:
    def test_run_compare_small_scale(self):
        from repro.bench.compare import run_compare

        result = run_compare("luindex", baseline="2obj", threshold=8,
                             scale=0.2, budget=60)
        assert set(result.runs) == {"2obj", "M-2obj", "T-2obj", "I-2obj"}
        base = result.runs["2obj"]
        mahjong = result.runs["M-2obj"]
        assert base["call_graph_edges"] == mahjong["call_graph_edges"]
        assert "2obj" in result.render()


class TestComposedConfigurations:
    def test_mahjong_heap_with_introspective_selector(self, tiny_program):
        """The heap abstraction and the selector are orthogonal axes;
        composing MAHJONG's heap with introspective refinement must stay
        sound (between ci and the full M-analysis in precision)."""
        from repro.analysis import run_analysis, run_pre_analysis
        from repro.analysis.introspective import refinement_set
        from repro.pta.context import IntrospectiveSensitive, selector_for
        from repro.pta.solver import Solver

        pre = run_pre_analysis(tiny_program)
        refined = refinement_set(pre, tiny_program, threshold=2)
        selector = IntrospectiveSensitive(
            selector_for("2obj"), lambda q: q in refined
        )
        composed = Solver(tiny_program, selector, pre.abstraction).solve()
        ci_edges = run_analysis(tiny_program, "M-ci",
                                pre=pre).result.call_graph_edges()
        full_edges = run_analysis(tiny_program, "M-2obj",
                                  pre=pre).result.call_graph_edges()
        assert full_edges <= composed.call_graph_edges() <= ci_edges

    @pytest.mark.parametrize("config", ["M-1cs", "T-1cs", "M-3cs"])
    def test_unusual_but_legal_configs(self, tiny_program, config):
        from repro.analysis import run_analysis

        run = run_analysis(tiny_program, config, timeout_seconds=60)
        assert run.succeeded
        assert run.metrics()["call_graph_edges"] > 0


class TestAllocationTypeDetails:
    def test_containing_class_is_first_site_of_type(self):
        from repro.frontend import parse_program
        from repro.pta.heapmodel import AllocationTypeAbstraction

        src = """
        class H { static method mk() { x = new A(); return x; } }
        class A { }
        main { a = H::mk(); b = new A(); }
        """
        program = parse_program(src)
        model = AllocationTypeAbstraction(program)
        # site 1 (inside H.mk) is the first A site -> containing class H
        assert model.containing_class(2, "A", program) == "H"

"""Shape tests for the bench harnesses (run at heavily reduced scale).

These verify each harness produces the paper's qualitative shape quickly;
the full-scale numbers live in EXPERIMENTS.md and are produced by
``python -m repro.bench all`` / the pytest-benchmark suite.
"""

import pytest

from repro.bench.fig8 import run_fig8
from repro.bench.fig9 import run_fig9
from repro.bench.motivating import run_motivating
from repro.bench.prestats import run_prestats
from repro.bench.reporting import (
    format_seconds,
    render_markdown_table,
    render_table,
)
from repro.bench.table1 import run_table1
from repro.bench.table2 import run_table2

SCALE = 0.25
FAST_PROFILES = ["luindex", "pmd"]


class TestReporting:
    def test_format_seconds(self):
        assert format_seconds(0.2) == "200ms"
        assert format_seconds(3.21) == "3.2s"
        assert format_seconds(123.4) == "123s"
        assert format_seconds(None) == "-"
        assert format_seconds(5.0, timed_out=True, budget=12) == ">12s"

    def test_render_table_alignment(self):
        text = render_table(("name", "value"), [("a", 1), ("bbb", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_render_markdown(self):
        text = render_markdown_table(("a", "b"), [(1, 2)])
        assert text.splitlines()[1] == "|---|---|"
        assert "| 1 | 2 |" in text


class TestFig8:
    def test_reduction_is_substantial(self):
        result = run_fig8(FAST_PROFILES, scale=SCALE)
        assert set(result.series) == set(FAST_PROFILES)
        assert 0.2 < result.average_reduction < 0.95
        assert "reduction" in result.render()


class TestFig9:
    def test_histogram_shape(self):
        result = run_fig9("checkstyle", scale=SCALE)
        assert result.singleton_classes > 0
        assert result.largest_class_size > 1
        total_objects = sum(size * count for size, count in result.points)
        assert total_objects > result.largest_class_size


class TestTable1:
    def test_report_contains_paper_patterns(self):
        result = run_table1("checkstyle", scale=SCALE)
        assert result.reports[0].size >= result.reports[-1].size
        # the StringBuilder-like dominant class stores char arrays
        sb_rows = [r for r in result.reports if r.type_name == "StringBuilder"]
        assert sb_rows and sb_rows[0].remark == "CharArray"
        # null-field members are split off
        assert result.find_by_remark("null fields")


class TestTable2:
    def test_matrix_and_speedups(self):
        result = run_table2(profiles=["luindex"], baselines=["2cs", "2obj"],
                            budget=60, scale=SCALE)
        cells = result.cells["luindex"]
        assert set(cells) == {"2cs", "M-2cs", "2obj", "M-2obj"}
        for baseline in ("2cs", "2obj"):
            base, mahjong = cells[baseline], cells[f"M-{baseline}"]
            for metric in ("call_graph_edges", "poly_call_sites",
                           "may_fail_casts"):
                assert base[metric] == mahjong[metric]
        assert result.speedup("luindex", "2obj") is not None
        assert "Pre-analysis" in result.render()

    def test_timeout_rows_render(self):
        result = run_table2(profiles=["luindex"], baselines=["2obj"],
                            budget=0.0, scale=SCALE)
        cells = result.cells["luindex"]
        assert cells["2obj"]["timed_out"]
        assert result.speedup("luindex", "2obj") is None
        assert ">0s" in result.render()


class TestMotivating:
    def test_paper_shape_holds(self):
        result = run_motivating("pmd", scale=0.4, budget=120)
        assert result.shape_holds()
        assert result.edges("T-3obj") > result.edges("3obj")
        assert result.edges("M-3obj") == result.edges("3obj")


class TestPreStats:
    def test_rows_and_render(self):
        result = run_prestats(FAST_PROFILES, scale=SCALE)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.nfa_min >= 1
            assert row.nfa_max >= row.nfa_avg >= row.nfa_min
            assert row.objects > 0
        assert "NFA avg" in result.render()


class TestReportWriter:
    def test_writes_text_and_json_bundle(self, tmp_path):
        import json

        from repro.bench.report import write_report

        out = tmp_path / "bundle"
        write_report(str(out), scale=0.15, budget=30,
                     profiles=["luindex"])
        names = {p.name for p in out.iterdir()}
        assert {"motivating.txt", "fig8.txt", "fig8.json", "fig9.txt",
                "fig9.json", "table1.txt", "prestats.txt", "table2.txt",
                "table2.json"} <= names
        table2 = json.loads((out / "table2.json").read_text())
        assert "luindex" in table2["cells"]
        fig8 = json.loads((out / "fig8.json").read_text())
        assert 0 < fig8["average_reduction"] < 1

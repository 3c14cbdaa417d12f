"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from tests.conftest import FIGURE1_SOURCE


@pytest.fixture
def figure1_file(tmp_path):
    path = tmp_path / "figure1.mj"
    path.write_text(FIGURE1_SOURCE)
    return str(path)


def test_analyze_prints_metrics(figure1_file, capsys):
    assert main(["analyze", figure1_file, "--analysis", "M-2obj"]) == 0
    out = capsys.readouterr().out
    assert "call_graph_edges: 1" in out
    assert "may_fail_casts: 0" in out


def test_analyze_default_analysis(figure1_file, capsys):
    assert main(["analyze", figure1_file]) == 0
    assert "analysis: M-2obj" in capsys.readouterr().out


def test_merge_prints_classes(figure1_file, capsys):
    assert main(["merge", figure1_file]) == 0
    out = capsys.readouterr().out
    assert "objects: 6 -> 4" in out


def test_generate_to_stdout(capsys):
    assert main(["generate", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "class StringBuilder" in out
    assert "main {" in out


def test_generate_to_file(tmp_path, capsys):
    target = tmp_path / "workload.mj"
    assert main(["generate", "tiny", "-o", str(target)]) == 0
    assert "wrote" in capsys.readouterr().out
    from repro.frontend import parse_program

    program = parse_program(target.read_text())
    assert program.stats()["alloc_sites"] > 0


def test_generated_file_reanalyzable(tmp_path, capsys):
    target = tmp_path / "workload.mj"
    main(["generate", "tiny", "-o", str(target)])
    assert main(["analyze", str(target), "--analysis", "M-2cs"]) == 0


def test_analyze_exhausted_exit_code(figure1_file, capsys):
    # a fresh fault per rung exhausts the whole ladder: exit code 3
    # plus a cause+phase diagnostic on stderr
    assert main(["analyze", figure1_file, "--analysis", "M-2obj",
                 "--faults", "main-boundary:times=6"]) == 3
    captured = capsys.readouterr()
    assert "timed_out: True" in captured.out
    assert "time budget exhausted in main phase" in captured.err


def test_analyze_no_degrade_fails_fast(figure1_file, capsys):
    assert main(["analyze", figure1_file, "--analysis", "M-2obj",
                 "--no-degrade", "--faults", "main-boundary"]) == 3
    captured = capsys.readouterr()
    assert "tried: M-2obj" in captured.err


def test_analyze_degrades_with_warning(figure1_file, capsys):
    assert main(["analyze", figure1_file, "--analysis", "M-2obj",
                 "--faults", "main-boundary"]) == 0
    captured = capsys.readouterr()
    assert "degraded_from: M-2obj" in captured.out
    assert "degraded to M-2type" in captured.err


def test_analyze_governor_flags(figure1_file, capsys):
    assert main(["analyze", figure1_file, "--analysis", "2obj",
                 "--no-degrade", "--max-iterations", "1",
                 "--check-stride", "1"]) == 3
    assert "work budget exhausted" in capsys.readouterr().err


def test_batch_subcommand_smoke(capsys):
    assert main(["batch", "--corpus", "cache,iterator",
                 "--config", "M-2obj"]) == 0
    out = capsys.readouterr().out
    assert "totals: 2 ok" in out


def test_batch_strict_exit_code(capsys):
    assert main(["batch", "--corpus", "cache", "--config", "M-2obj",
                 "--strict", "--faults", "main-boundary:kind=crash"]) == 4
    assert "1 failed" in capsys.readouterr().out


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_bench_dispatch_unknown_harness(capsys):
    assert main(["bench", "nope"]) == 2


def test_viz_fpg_to_stdout(figure1_file, capsys):
    assert main(["viz", figure1_file, "--merged"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph "FPG"')
    assert "->" in out


def test_viz_hierarchy(figure1_file, capsys):
    assert main(["viz", figure1_file, "--kind", "hierarchy"]) == 0
    assert '"A" -> "B";' in capsys.readouterr().out


def test_viz_callgraph_to_file(figure1_file, tmp_path, capsys):
    target = tmp_path / "cg.dot"
    assert main(["viz", figure1_file, "--kind", "callgraph",
                 "-o", str(target)]) == 0
    assert "C.foo" in target.read_text()


def test_report_json(figure1_file, tmp_path):
    import json

    target = tmp_path / "report.json"
    assert main(["report", figure1_file, "--analyses", "ci,M-ci",
                 "-o", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert payload["program"]["alloc_sites"] == 6
    assert payload["analyses"]["M-ci"]["call_graph_edges"] == 1
    assert payload["pre_analysis"]["merge"]["objects_after"] == 4


@pytest.mark.parametrize("config", ["2obj@bogus", "2obj@set", "nope"])
def test_analyze_rejects_bad_config_before_any_phase(figure1_file, config,
                                                     capsys):
    """A config that does not parse is a usage error (argparse's exit 2)
    with the parse error printed — not a failure of the main phase."""
    with pytest.raises(SystemExit) as info:
        main(["analyze", figure1_file, "--analysis", config])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --analysis" in err
    assert "failure in main phase" not in err


@pytest.mark.parametrize("flags", [["--incremental", "on"],
                                   ["--incremental-from", "old.mj"]],
                         ids=["incremental", "incremental-from"])
def test_analyze_rejects_retired_incremental_flags(figure1_file, flags,
                                                   capsys):
    """Edits re-solve cold; the warm-start flags are gone, so argparse
    rejects them as usage errors (exit 2) before any phase runs."""
    with pytest.raises(SystemExit) as info:
        main(["analyze", figure1_file, *flags])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_analyze_refuses_shared_writable_cache_dir(figure1_file, tmp_path,
                                                   capsys):
    shared = tmp_path / "cache"
    shared.mkdir()
    shared.chmod(0o777)
    assert main(["analyze", figure1_file, "--cache-dir", str(shared)]) == 2
    assert "writable" in capsys.readouterr().err

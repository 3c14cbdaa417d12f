"""The bench harness ``main()`` CLIs parse their flags and run."""

from repro.bench import fig8, fig9, motivating, prestats, table1, table2
from repro.bench.__main__ import main as dispatch


class TestHarnessMains:
    def test_fig8_main(self, capsys):
        assert fig8.main(["--profiles", "luindex", "--scale", "0.2"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_fig9_main(self, capsys):
        assert fig9.main(["--profile", "luindex", "--scale", "0.2"]) == 0
        assert "singleton classes" in capsys.readouterr().out

    def test_table1_main(self, capsys):
        assert table1.main(["--profile", "luindex", "--scale", "0.2",
                            "--limit", "5"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_table2_main(self, capsys):
        assert table2.main(["--profiles", "luindex", "--configs", "2type",
                            "--scale", "0.2", "--budget", "30"]) == 0
        out = capsys.readouterr().out
        assert "M-2type" in out

    def test_prestats_main(self, capsys):
        assert prestats.main(["--profiles", "luindex",
                              "--scale", "0.2"]) == 0
        assert "NFA" in capsys.readouterr().out

    def test_motivating_main(self, capsys):
        assert motivating.main(["--profile", "luindex", "--scale", "0.3",
                                "--budget", "60"]) == 0
        assert "paper shape holds" in capsys.readouterr().out


class TestDispatcher:
    def test_help(self, capsys):
        assert dispatch([]) == 0
        out = capsys.readouterr().out
        for name in ("table2", "fig8", "compare", "report", "all"):
            assert name in out

    def test_unknown(self, capsys):
        assert dispatch(["bogus"]) == 2

    def test_named_dispatch(self, capsys):
        assert dispatch(["fig8", "--profiles", "luindex",
                         "--scale", "0.2"]) == 0
        assert "reduction" in capsys.readouterr().out

"""Tests of the ``repro check`` command line: exit codes, formats, routing."""

from __future__ import annotations

import json
from pathlib import Path

from repro.checks.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
RC06 = FIXTURES / "rc06"


class TestExitCodes:
    def test_violations_exit_nonzero(self, capsys):
        rc = main([str(RC06 / "bench_bad.py"), "--root", str(RC06),
                   "--select", "RC06"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "bench_bad.py:9: RC06" in out

    def test_clean_tree_exits_zero(self, capsys):
        rc = main([str(RC06 / "bench_clean.py"), "--root", str(RC06)])
        assert rc == 0
        assert "0 findings" in capsys.readouterr().out

    def test_unknown_rule_code_is_a_usage_error(self, capsys):
        rc = main([str(RC06 / "bench_clean.py"), "--select", "RC99"])
        assert rc == 2
        assert "unknown rule codes: RC99" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, capsys):
        rc = main(["definitely/not/a/path"])
        assert rc == 2
        assert "no such path" in capsys.readouterr().err


class TestOutputs:
    def test_json_format(self, capsys):
        rc = main([str(RC06 / "bench_bad.py"), "--root", str(RC06),
                   "--select", "RC06", "--format", "json"])
        assert rc == 1
        bundle = json.loads(capsys.readouterr().out)
        assert [(f["line"], f["code"]) for f in bundle["findings"]] == \
            [(9, "RC06"), (10, "RC06")]

    def test_list_checks_names_every_rule(self, capsys):
        assert main(["--list-checks"]) == 0
        out = capsys.readouterr().out
        for code in ("RC01", "RC03", "RC04", "RC06"):
            assert code in out

    def test_select_filters_rules(self):
        # the RC06 fixture has no RC03 content: selecting RC03 only is clean
        rc = main([str(RC06 / "bench_bad.py"), "--root", str(RC06),
                   "--select", "RC03"])
        assert rc == 0


class TestReproCliIntegration:
    def test_repro_check_subcommand_routes_here(self, capsys):
        from repro.cli import main as repro_main

        rc = repro_main(["check", "--root", str(RC06), "--select", "RC06",
                         str(RC06 / "bench_bad.py")])
        assert rc == 1
        assert "RC06" in capsys.readouterr().out

    def test_module_entry_point_exists(self):
        import repro.checks.__main__  # noqa: F401  (import is the test)

"""Tests of the ``repro check`` command line: exit codes, formats, --fix."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.checks.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
RC02 = FIXTURES / "rc02"


class TestExitCodes:
    def test_violations_exit_nonzero(self, capsys):
        rc = main([str(RC02 / "bad_numpy.py"), "--root", str(RC02),
                   "--select", "RC02"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "bad_numpy.py:3: RC02" in out

    def test_clean_tree_exits_zero(self, capsys):
        rc = main([str(RC02 / "clean_numpy.py"), "--root", str(RC02)])
        assert rc == 0
        assert "0 findings" in capsys.readouterr().out

    def test_unknown_rule_code_is_a_usage_error(self, capsys):
        rc = main([str(RC02 / "clean_numpy.py"), "--select", "RC99"])
        assert rc == 2
        assert "unknown rule codes: RC99" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, capsys):
        rc = main(["definitely/not/a/path"])
        assert rc == 2
        assert "no such path" in capsys.readouterr().err


class TestOutputs:
    def test_json_format(self, capsys):
        rc = main([str(RC02 / "bad_numpy.py"), "--root", str(RC02),
                   "--select", "RC02", "--format", "json"])
        assert rc == 1
        bundle = json.loads(capsys.readouterr().out)
        assert [(f["line"], f["code"]) for f in bundle["findings"]] == \
            [(3, "RC02"), (4, "RC02")]

    def test_list_checks_names_every_rule(self, capsys):
        assert main(["--list-checks"]) == 0
        out = capsys.readouterr().out
        for code in ("RC01", "RC02", "RC03", "RC04", "RC06"):
            assert code in out

    def test_select_filters_rules(self):
        # the RC02 fixture has no RC03 content: selecting RC03 only is clean
        rc = main([str(RC02 / "bad_numpy.py"), "--root", str(RC02),
                   "--select", "RC03"])
        assert rc == 0


class TestFix:
    def test_fix_rewrites_then_rechecks_clean(self, tmp_path, capsys):
        target = tmp_path / "pipeline.py"
        shutil.copy(RC02 / "fixable_numpy.py", target)
        rc = main([str(target), "--root", str(tmp_path),
                   "--select", "RC02", "--fix"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fixed:" in out
        assert "from repro._numpy import np" in target.read_text()

    def test_fix_is_idempotent(self, tmp_path, capsys):
        target = tmp_path / "pipeline.py"
        shutil.copy(RC02 / "fixable_numpy.py", target)
        argv = [str(target), "--root", str(tmp_path), "--select", "RC02",
                "--fix"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "fixed:" not in capsys.readouterr().out

    def test_fix_leaves_unfixable_forms_as_findings(self, tmp_path, capsys):
        target = tmp_path / "pipeline.py"
        shutil.copy(RC02 / "bad_numpy.py", target)
        rc = main([str(target), "--root", str(tmp_path),
                   "--select", "RC02", "--fix"])
        out = capsys.readouterr().out
        assert rc == 1  # 'from numpy import linalg' cannot be auto-fixed
        assert "from repro._numpy import np" in target.read_text()
        assert "from numpy import linalg" in target.read_text()
        assert "pipeline.py:4: RC02" in out


class TestReproCliIntegration:
    def test_repro_check_subcommand_routes_here(self, capsys):
        from repro.cli import main as repro_main

        rc = repro_main(["check", "--root", str(RC02), "--select", "RC02",
                         str(RC02 / "bad_numpy.py")])
        assert rc == 1
        assert "RC02" in capsys.readouterr().out

    def test_module_entry_point_exists(self):
        import repro.checks.__main__  # noqa: F401  (import is the test)

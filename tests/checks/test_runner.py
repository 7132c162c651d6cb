"""Tests of file collection, suppression accounting and output formatting."""

from __future__ import annotations

import json
from pathlib import Path

from repro.checks import format_findings, run_check
from repro.checks.bench_emit import BenchEmitChecker
from repro.checks.runner import collect_files

FIXTURES = Path(__file__).resolve().parent / "fixtures"


class TestCollectFiles:
    def test_fixture_directories_are_pruned_on_recursion(self):
        collected = collect_files([FIXTURES.parent])  # tests/checks
        assert collected, "the checks test package itself should be found"
        assert all("fixtures" not in path.parts for path in collected)

    def test_explicit_paths_bypass_the_exclusion(self):
        target = FIXTURES / "rc06" / "bench_bad.py"
        assert collect_files([target]) == [target]

    def test_duplicates_are_collapsed(self):
        target = FIXTURES / "rc06" / "bench_bad.py"
        assert collect_files([target, target]) == [target]

    def test_missing_directory_raises(self, tmp_path):
        try:
            collect_files([tmp_path / "nowhere"])
        except FileNotFoundError as exc:
            assert "nowhere" in str(exc)
        else:
            raise AssertionError("expected FileNotFoundError")

    def test_no_default_excludes_descends_into_fixtures(self):
        collected = collect_files([FIXTURES.parent], excluded_dirs=())
        assert any("fixtures" in path.parts for path in collected)


class TestRunCheck:
    def test_syntax_error_becomes_an_rc00_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def half(:\n", encoding="utf-8")
        findings, _ = run_check([broken], root=tmp_path)
        assert [(f.path, f.code) for f in findings] == [("broken.py", "RC00")]
        assert "does not parse" in findings[0].message

    def test_findings_come_back_sorted(self):
        rc06 = FIXTURES / "rc06"
        findings, _ = run_check(
            [rc06 / "bench_clean.py", rc06 / "bench_bad.py"],
            root=rc06, checkers=[BenchEmitChecker])
        assert findings == sorted(findings)
        assert [f.line for f in findings] == [9, 10]


class TestFormatting:
    def run_bad(self):
        rc06 = FIXTURES / "rc06"
        return run_check([rc06 / "bench_bad.py"], root=rc06,
                         checkers=[BenchEmitChecker])

    def test_text_format_is_one_line_per_finding_plus_summary(self):
        findings, ctx = self.run_bad()
        lines = format_findings(findings, ctx).splitlines()
        assert lines[0].startswith("bench_bad.py:9: RC06 ")
        assert lines[1].startswith("bench_bad.py:10: RC06 ")
        assert lines[-1] == "repro check: 2 findings in 1 files"

    def test_text_summary_reports_suppressions(self):
        rc06 = FIXTURES / "rc06"
        findings, ctx = run_check([rc06 / "bench_suppressed.py"], root=rc06,
                                  checkers=[BenchEmitChecker])
        summary = format_findings(findings, ctx).splitlines()[-1]
        assert summary == "repro check: 0 findings in 1 files (1 suppressed)"

    def test_json_bundle_shape(self):
        findings, ctx = self.run_bad()
        bundle = json.loads(format_findings(findings, ctx, fmt="json"))
        assert bundle["version"] == 1
        assert bundle["checked_files"] == 1
        assert bundle["suppressed"] == 0
        assert [f["line"] for f in bundle["findings"]] == [9, 10]
        assert set(bundle["findings"][0]) == {"path", "line", "code", "message"}

"""Per-rule tests against the seeded fixture trees.

Every rule (RC01, RC03, RC06) has a seeded-violation fixture and a clean
twin; the tests pin the *exact* ``(path, line, code)`` triples so a checker
that drifts by one line, fires twice, or goes silent fails loudly.
"""

from __future__ import annotations

from pathlib import Path

from repro.checks import run_check
from repro.checks.bench_emit import BenchEmitChecker
from repro.checks.guarded_emission import GuardedEmissionChecker
from repro.checks.trace_kinds import TraceKindChecker

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def triples(findings):
    return [(f.path, f.line, f.code) for f in findings]


class TestTraceKindsRC01:
    ROOT = FIXTURES / "rc01"

    def run(self, *names, trace_doc="trace-format.md"):
        return run_check([self.ROOT / name for name in names],
                         root=self.ROOT, checkers=[TraceKindChecker],
                         trace_doc=self.ROOT / trace_doc)

    def test_unregistered_literal_kind_is_reported(self):
        findings, _ = self.run("records.py", "bad_kinds.py")
        assert triples(findings) == [("bad_kinds.py", 7, "RC01")]
        assert "calendar.flsh" in findings[0].message

    def test_registered_kind_is_clean(self):
        findings, _ = self.run("records.py", "clean_kinds.py")
        assert findings == []

    def test_undocumented_registry_entry_is_reported(self, tmp_path):
        pristine = (self.ROOT / "trace-format.md").read_text(encoding="utf-8")
        kept = [line for line in pristine.splitlines(keepends=True)
                if "`metrics.sample`" not in line]
        assert len(kept) == len(pristine.splitlines()) - 1
        drifted = tmp_path / "trace-format.md"
        drifted.write_text("".join(kept), encoding="utf-8")
        findings, _ = run_check(
            [self.ROOT / "records.py", self.ROOT / "clean_kinds.py"],
            root=self.ROOT, checkers=[TraceKindChecker], trace_doc=drifted)
        # anchored at the registry entry of the now-undocumented kind
        assert triples(findings) == [("records.py", 6, "RC01")]
        assert "metrics.sample" in findings[0].message


class TestGuardedEmissionRC03:
    ROOT = FIXTURES / "rc03"

    def test_unguarded_truthy_and_computed_receivers_are_reported(self):
        findings, _ = run_check([self.ROOT / "bad" / "engine.py"],
                                root=self.ROOT,
                                checkers=[GuardedEmissionChecker])
        assert triples(findings) == [("bad/engine.py", 7, "RC03"),
                                     ("bad/engine.py", 12, "RC03"),
                                     ("bad/engine.py", 16, "RC03")]

    def test_every_real_guard_shape_is_accepted(self):
        findings, _ = run_check([self.ROOT / "clean" / "engine.py"],
                                root=self.ROOT,
                                checkers=[GuardedEmissionChecker])
        assert findings == []

    def test_non_hot_basenames_are_ignored(self, tmp_path):
        twin = tmp_path / "analysis.py"
        twin.write_text((self.ROOT / "bad" / "engine.py").read_text(),
                        encoding="utf-8")
        findings, _ = run_check([twin], root=tmp_path,
                                checkers=[GuardedEmissionChecker])
        assert findings == []


class TestBenchEmitRC06:
    ROOT = FIXTURES / "rc06"

    def test_hand_rolled_writes_are_reported(self):
        findings, _ = run_check([self.ROOT / "bench_bad.py"], root=self.ROOT,
                                checkers=[BenchEmitChecker])
        assert triples(findings) == [("bench_bad.py", 9, "RC06"),
                                     ("bench_bad.py", 10, "RC06")]

    def test_emit_fixture_usage_is_clean(self):
        findings, _ = run_check([self.ROOT / "bench_clean.py"],
                                root=self.ROOT, checkers=[BenchEmitChecker])
        assert findings == []

    def test_inline_suppression_counts_but_does_not_report(self):
        findings, ctx = run_check([self.ROOT / "bench_suppressed.py"],
                                  root=self.ROOT,
                                  checkers=[BenchEmitChecker])
        assert findings == []
        assert ctx.suppressed_count == 1

    def test_rule_only_applies_to_bench_basenames(self, tmp_path):
        twin = tmp_path / "helper.py"
        twin.write_text((self.ROOT / "bench_bad.py").read_text(),
                        encoding="utf-8")
        findings, _ = run_check([twin], root=tmp_path,
                                checkers=[BenchEmitChecker])
        assert findings == []

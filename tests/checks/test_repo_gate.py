"""The acceptance gate itself: the real tree is clean, and doc drift fails.

These are the two properties the CI ``static-analysis`` job relies on:
``repro check src tests benchmarks`` exits 0 on the maintained tree, and
removing a record kind's row from ``docs/trace-format.md`` makes RC01 fire.
A third keeps the package's pointers honest: every file a module cites
exists, and every dotted ``repro`` name it cites resolves.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

from repro.checks import run_check
from repro.checks.trace_kinds import TraceKindChecker

REPO_ROOT = Path(__file__).resolve().parents[2]
RECORDS = REPO_ROOT / "src" / "repro" / "trace" / "records.py"


class TestRepoGate:
    def test_maintained_tree_has_no_findings(self):
        findings, ctx = run_check(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
            root=REPO_ROOT)
        assert [f.format() for f in findings] == []
        assert len(ctx.modules) > 100  # the whole tree really was scanned

    def test_registry_and_real_doc_are_in_sync(self):
        findings, _ = run_check([RECORDS], root=REPO_ROOT,
                                checkers=[TraceKindChecker])
        assert findings == []


class TestDocDrift:
    def test_removing_a_documented_kind_fails_rc01(self, tmp_path):
        doc = REPO_ROOT / "docs" / "trace-format.md"
        pristine = doc.read_text(encoding="utf-8")
        kept = [line for line in pristine.splitlines(keepends=True)
                if "`calendar.flush`" not in line]
        assert len(kept) == len(pristine.splitlines()) - 1
        drifted = tmp_path / "trace-format.md"
        drifted.write_text("".join(kept), encoding="utf-8")
        findings, _ = run_check([RECORDS], root=REPO_ROOT,
                                checkers=[TraceKindChecker],
                                trace_doc=drifted)
        assert [(f.path, f.code) for f in findings] == \
            [("src/repro/trace/records.py", "RC01")]
        assert "'calendar.flush'" in findings[0].message


#: repository paths a docstring or comment can cite: files under the
#: top-level directories, and the upper-case documents at the root
CITED_PATH = re.compile(
    r"\b(?:(?:benchmarks|docs|examples|perfbench|tests)/[\w./-]+\.(?:py|md|json|txt)"
    r"|[A-Z][A-Z_]*\.md)\b")
#: dotted names of the package: modules, and attributes of modules
CITED_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``; look up the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


class TestCitedFiles:
    def test_every_file_cited_in_the_package_exists(self):
        cited = {}
        for module in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            for path in CITED_PATH.findall(module.read_text(encoding="utf-8")):
                cited.setdefault(path, module.relative_to(REPO_ROOT).as_posix())
        assert "docs/trace-format.md" in cited  # the scan really matches citations
        missing = {path: module for path, module in cited.items()
                   if not (REPO_ROOT / path).exists()}
        assert missing == {}

    def test_every_repro_name_cited_in_the_package_resolves(self):
        cited = {}
        for module in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            for name in CITED_NAME.findall(module.read_text(encoding="utf-8")):
                cited.setdefault(name, module.relative_to(REPO_ROOT).as_posix())
        assert "repro.network.fluid.TransferCalendar" in cited
        unresolved = {name: module for name, module in cited.items()
                      if not resolves(name)}
        assert unresolved == {}

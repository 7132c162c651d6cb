"""File collection and orchestration of one ``repro check`` run."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Type

from .base import Checker, CheckContext, Finding, ParsedModule
from .bench_emit import BenchEmitChecker
from .delta_contract import DeltaContractChecker
from .guarded_emission import GuardedEmissionChecker
from .trace_kinds import TraceKindChecker

__all__ = [
    "ALL_CHECKERS",
    "DEFAULT_EXCLUDED_DIRS",
    "collect_files",
    "run_check",
    "format_findings",
]

#: every shipped rule, in code order
ALL_CHECKERS: Tuple[Type[Checker], ...] = (
    TraceKindChecker,
    GuardedEmissionChecker,
    DeltaContractChecker,
    BenchEmitChecker,
)

#: directory names skipped during recursive collection: seeded-violation
#: fixture trees (they *must* contain findings) and the usual build noise
DEFAULT_EXCLUDED_DIRS: Tuple[str, ...] = (
    "fixtures", "__pycache__", ".git", ".hypothesis", "build", "dist",
)


def collect_files(paths: Sequence[Path], *,
                  excluded_dirs: Sequence[str] = DEFAULT_EXCLUDED_DIRS,
                  ) -> List[Path]:
    """Python files under ``paths``, sorted, fixture/virtual dirs pruned.

    A path given *explicitly* is always included, even inside an excluded
    directory — that is how the fixture tests point the checker at the
    seeded trees.
    """
    excluded = set(excluded_dirs)
    out: List[Path] = []
    seen = set()

    def add(path: Path) -> None:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            out.append(path)

    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                add(path)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            relative_parts = candidate.relative_to(path).parts[:-1]
            if any(part in excluded for part in relative_parts):
                continue
            add(candidate)
    return out


def run_check(paths: Sequence[Path], *,
              root: Optional[Path] = None,
              checkers: Optional[Iterable[Type[Checker]]] = None,
              trace_doc: Optional[Path] = None,
              hot_modules: Optional[Sequence[str]] = None,
              excluded_dirs: Sequence[str] = DEFAULT_EXCLUDED_DIRS,
              ) -> Tuple[List[Finding], CheckContext]:
    """Parse every file once, run every checker, return sorted findings.

    A file that fails to parse produces a single ``RC00`` syntax finding
    instead of aborting the run — the gate reports, CI fails, the author
    sees the real traceback from the test suite anyway.
    """
    resolved_root = (root if root is not None else Path.cwd()).resolve()
    ctx = CheckContext(resolved_root, trace_doc=trace_doc,
                       hot_modules=hot_modules)
    active = [cls() for cls in (checkers if checkers is not None
                                else ALL_CHECKERS)]
    for path in collect_files(paths, excluded_dirs=excluded_dirs):
        try:
            module = ParsedModule.load(path, resolved_root)
        except SyntaxError as exc:
            rel = _rel(path, resolved_root)
            ctx.findings.append(Finding(
                path=rel, line=exc.lineno or 0, code="RC00",
                message=f"file does not parse: {exc.msg}"))
            continue
        ctx.modules.append(module)
        for checker in active:
            checker.visit_module(ctx, module)
    for checker in active:
        checker.finalize(ctx)
    ctx.findings.sort()
    return ctx.findings, ctx


def _rel(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def format_findings(findings: Sequence[Finding], ctx: CheckContext, *,
                    fmt: str = "text") -> str:
    """Render a finished run: one line per finding, or the JSON bundle."""
    if fmt == "json":
        return json.dumps({
            "version": 1,
            "checked_files": len(ctx.modules),
            "suppressed": ctx.suppressed_count,
            "findings": [finding.to_dict() for finding in findings],
        }, indent=2, sort_keys=True)
    lines = [finding.format() for finding in findings]
    summary = (f"repro check: {len(findings)} finding"
               f"{'' if len(findings) == 1 else 's'} in "
               f"{len(ctx.modules)} files")
    if ctx.suppressed_count:
        summary += f" ({ctx.suppressed_count} suppressed)"
    lines.append(summary)
    return "\n".join(lines)

"""Command line entry point: ``repro check`` / ``python -m repro.checks``.

Exit codes: 0 — clean; 1 — findings reported; 2 — usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .runner import (
    ALL_CHECKERS,
    DEFAULT_EXCLUDED_DIRS,
    format_findings,
    run_check,
)

__all__ = ["main", "build_parser"]

#: scanned when no paths are given: the whole maintained tree
DEFAULT_PATHS = ("src", "tests", "benchmarks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=("repo-specific invariant linter: trace registry, "
                     "guarded emission, delta contract, benchmark emit "
                     "discipline"),
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to check "
                             f"(default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--root", default=None,
                        help="repository root findings are reported relative "
                             "to (default: the working directory)")
    parser.add_argument("--format", dest="fmt", choices=["text", "json"],
                        default="text", help="output format (default text)")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--trace-doc", default=None,
                        help="trace-format document RC01 checks against "
                             "(default: <root>/docs/trace-format.md)")
    parser.add_argument("--no-default-excludes", action="store_true",
                        help="descend into fixture/build directories that "
                             "are pruned by default")
    parser.add_argument("--list-checks", action="store_true",
                        help="list the shipped rules and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_checks:
        for cls in ALL_CHECKERS:
            print(f"{cls.code}  {cls.name}: {cls.description}")
        return 0

    root = Path(args.root) if args.root else Path.cwd()
    raw_paths = args.paths if args.paths else list(DEFAULT_PATHS)
    paths = [Path(p) for p in raw_paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    checkers = None
    if args.select:
        wanted = {code.strip().upper()
                  for code in args.select.split(",") if code.strip()}
        checkers = [cls for cls in ALL_CHECKERS if cls.code in wanted]
        unknown = wanted - {cls.code for cls in ALL_CHECKERS}
        if unknown:
            print(f"error: unknown rule codes: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    excluded: Sequence[str] = (
        () if args.no_default_excludes else DEFAULT_EXCLUDED_DIRS)

    try:
        findings, ctx = run_check(
            paths,
            root=root,
            checkers=checkers,
            trace_doc=Path(args.trace_doc) if args.trace_doc else None,
            excluded_dirs=excluded,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(format_findings(findings, ctx, fmt=args.fmt))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

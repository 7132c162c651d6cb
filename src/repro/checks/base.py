"""Core vocabulary of the invariant linter: findings, parsed modules, checkers.

``repro check`` (:mod:`repro.checks`) is a repo-specific static-analysis
gate: each :class:`Checker` encodes one convention the codebase relies on
but Python itself cannot enforce — the trace-kind registry staying in sync
with its documentation, the "disabled path is one pointer test" emission
contract, the ``RateProvider`` delta contract and the benchmark emit
discipline.  The checkers operate on plain :mod:`ast` trees (per-file ``visit`` hooks plus a
cross-file ``finalize``), so the gate runs anywhere the stdlib runs — no
third-party linter required.

Suppressions
------------
A finding can be silenced at the exact line it is reported on (or the line
directly above, for statements that would overflow the line with the
comment)::

    trace.emit(record)  # repro-check: ignore[RC03]

or for a whole file with a module-level comment::

    # repro-check: ignore-file[RC04]

``ignore`` / ``ignore-file`` without a bracketed code list silences every
rule.  Codes are comma-separated (``ignore[RC01, RC03]``).  Suppressions
are deliberately loud in review diffs — the convention is to attach a
rationale on the same comment line.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

__all__ = [
    "Finding",
    "ParsedModule",
    "Suppressions",
    "Checker",
    "CheckContext",
    "dotted_name",
]

#: matches one suppression comment; group(1) is ``ignore`` or ``ignore-file``,
#: group(2) the optional bracketed code list
_SUPPRESS_RE = re.compile(
    r"#\s*repro-check:\s*(ignore-file|ignore)\s*(?:\[([^\]]*)\])?"
)

#: the sentinel meaning "every code is suppressed"
_ALL_CODES = frozenset({"*"})


@dataclass(frozen=True, order=True)
class Finding:
    """One reported violation: where, which rule, and what went wrong."""

    path: str  #: repo-root-relative POSIX path
    line: int  #: 1-based line number (0 for file-scoped findings)
    code: str  #: rule code, e.g. ``"RC03"``
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "code": self.code,
            "message": self.message,
        }


class Suppressions:
    """Per-file suppression table parsed from ``# repro-check:`` comments."""

    def __init__(self, file_codes: FrozenSet[str],
                 line_codes: Dict[int, FrozenSet[str]]) -> None:
        self._file_codes = file_codes
        self._line_codes = line_codes

    @classmethod
    def parse(cls, source: str) -> "Suppressions":
        file_codes: Set[str] = set()
        line_codes: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "repro-check" not in line:
                continue
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            raw = match.group(2)
            codes = (
                frozenset(code.strip().upper()
                          for code in raw.split(",") if code.strip())
                if raw is not None and raw.strip() else _ALL_CODES
            )
            if match.group(1) == "ignore-file":
                file_codes |= codes
            else:
                line_codes.setdefault(lineno, set()).update(codes)
        return cls(frozenset(file_codes),
                   {line: frozenset(codes) for line, codes in line_codes.items()})

    def _hits(self, codes: FrozenSet[str], code: str) -> bool:
        return "*" in codes or code.upper() in codes

    def suppressed(self, line: int, code: str) -> bool:
        """Is ``code`` silenced at ``line`` (same line, line above, or file)?"""
        if self._file_codes and self._hits(self._file_codes, code):
            return True
        for candidate in (line, line - 1):
            codes = self._line_codes.get(candidate)
            if codes is not None and self._hits(codes, code):
                return True
        return False


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every checker."""

    path: Path  #: absolute path on disk
    rel: str  #: root-relative POSIX path (the one findings carry)
    source: str
    tree: ast.Module
    suppressions: Suppressions

    @classmethod
    def load(cls, path: Path, root: Path) -> "ParsedModule":
        with tokenize.open(path) as handle:  # honors PEP 263 coding cookies
            source = handle.read()
        tree = ast.parse(source, filename=str(path))
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        return cls(path=path, rel=rel, source=source, tree=tree,
                   suppressions=Suppressions.parse(source))

    @property
    def basename(self) -> str:
        return self.path.name


class CheckContext:
    """Shared state of one ``repro check`` run.

    Holds the scan root (findings are reported relative to it), the parsed
    modules, configuration knobs the checkers consult, and the finding
    sink.  ``report()`` applies line/file suppressions at emission time, so
    checkers never need to know about them.
    """

    def __init__(self, root: Path, *,
                 trace_doc: Optional[Path] = None,
                 hot_modules: Optional[Iterable[str]] = None) -> None:
        self.root = root
        self.trace_doc = trace_doc
        self.hot_modules: Tuple[str, ...] = tuple(
            hot_modules if hot_modules is not None else DEFAULT_HOT_MODULES
        )
        self.modules: List[ParsedModule] = []
        self.findings: List[Finding] = []
        self.suppressed_count = 0

    def report(self, module: Optional[ParsedModule], line: int, code: str,
               message: str, *, rel: Optional[str] = None) -> None:
        """Record one finding unless a suppression comment covers it."""
        if module is not None and module.suppressions.suppressed(line, code):
            self.suppressed_count += 1
            return
        path = rel if rel is not None else (module.rel if module else "<unknown>")
        self.findings.append(Finding(path=path, line=line, code=code,
                                     message=message))


#: the hot-path modules RC03 polices (basename match): the files whose
#: disabled-observability path must stay "one pointer test" (PRs 5/7)
DEFAULT_HOT_MODULES: Tuple[str, ...] = (
    "fluid.py",
    "engine.py",
    "incremental.py",
    "sharing.py",
    "allocator.py",
)


class Checker:
    """Base class of one invariant rule.

    Subclasses set ``code``/``name``/``description`` and override
    :meth:`visit_module` (called once per parsed file, in scan order) and
    optionally :meth:`finalize` (called once after every file was visited —
    the place for cross-file invariants).  Checkers are instantiated per
    run, so instance attributes are safe accumulation state.
    """

    code: ClassVar[str] = "RC00"
    name: ClassVar[str] = "base"
    description: ClassVar[str] = ""

    def visit_module(self, ctx: CheckContext, module: ParsedModule) -> None:
        """Per-file hook; default does nothing."""

    def finalize(self, ctx: CheckContext) -> None:
        """Cross-file hook; default does nothing."""


def dotted_name(node: ast.expr) -> Optional[str]:
    """Stringify a ``Name``/``Attribute`` chain (``self._trace``), else None.

    The helper every guard-sensitive checker uses to compare "the thing
    being called" against "the thing being None-tested" — only plain
    attribute chains rooted at a name are comparable; anything with calls
    or subscripts in it is not.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None

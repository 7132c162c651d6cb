"""``repro.checks`` — the repo-specific invariant linter (``repro check``).

Eight PRs of conventions, enforced mechanically:

========  ============================  ==========================================
code      name                          invariant
========  ============================  ==========================================
``RC01``  trace-kind-registry           literal ``TraceRecord`` kinds ∈
                                        ``KNOWN_KINDS``; every registered kind
                                        documented in ``docs/trace-format.md``
``RC03``  guarded-emission              hot-path ``.emit`` / ``.sample_record`` /
                                        PhaseTimer use dominated by an
                                        ``is not None`` test on the same name
``RC06``  bench-emit-discipline         benchmarks write results only through the
                                        shared ``emit`` fixture
========  ============================  ==========================================

See ``docs/static-analysis.md`` for the rules, the suppression syntax
(``# repro-check: ignore[CODE]``) and how to add a checker.
"""

from .base import Checker, CheckContext, Finding, ParsedModule, Suppressions
from .cli import main
from .runner import ALL_CHECKERS, collect_files, format_findings, run_check

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "CheckContext",
    "Finding",
    "ParsedModule",
    "Suppressions",
    "collect_files",
    "format_findings",
    "main",
    "run_check",
]

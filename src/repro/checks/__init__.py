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

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".runner": ["ALL_CHECKERS", "collect_files", "format_findings", "run_check"],
    ".base": ["Checker", "CheckContext", "Finding", "ParsedModule", "Suppressions"],
    ".cli": ["main"],
})

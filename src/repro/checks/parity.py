"""RC05 — every ``vectorized`` toggle is named in the parity manifest.

Every batch path in the codebase ships behind a ``vectorized`` toggle that
is property-tested bit-exact against its scalar twin.  The
manifest (``src/repro/checks/parity_manifest.json``) is the checked-in map
from toggle module to its scalar-vs-array property-test file; this rule
makes the pairing mechanical:

* a library module that grows a ``vectorized`` toggle (a function/method
  parameter named ``vectorized``, or a class attribute starting with
  ``vectorized``) must appear in the manifest — a new batch path cannot
  land untested;
* every manifest entry must point at an existing module and an existing
  test file, and the module must still contain a toggle — the manifest
  cannot go stale in either direction.

Test and benchmark files (``test_*``, ``bench_*``, ``conftest.py``) are
exempt: they *are* the parity evidence, not new batch paths.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .base import Checker, CheckContext, ParsedModule

__all__ = ["ParityManifestChecker", "DEFAULT_MANIFEST"]

#: the checked-in manifest shipped next to this module
DEFAULT_MANIFEST = Path(__file__).with_name("parity_manifest.json")


def module_toggle_line(tree: ast.Module) -> Optional[int]:
    """First line defining a ``vectorized`` toggle, or None.

    A toggle is a function/method parameter named ``vectorized`` or a
    class-body assignment to a name starting with ``vectorized`` (a config
    field such as ``vectorized_solver: bool``).  Local variables inside
    function bodies do not count — they are plumbing, not a public toggle.
    """
    best: Optional[int] = None
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                if arg.arg == "vectorized":
                    line = arg.lineno
                    best = line if best is None else min(best, line)
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets: List[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = list(stmt.targets)
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name) and \
                            target.id.startswith("vectorized"):
                        best = (stmt.lineno if best is None
                                else min(best, stmt.lineno))
    return best


def _is_exempt(basename: str) -> bool:
    return (basename.startswith("test_") or basename.startswith("bench_")
            or basename == "conftest.py")


class ParityManifestChecker(Checker):
    code = "RC05"
    name = "vectorized-parity-manifest"
    description = ("modules with a 'vectorized' toggle must be mapped to "
                   "their scalar-vs-array property-test file in the parity "
                   "manifest (and the manifest must not go stale)")

    def __init__(self) -> None:
        #: rel-path -> (module, toggle line) of every scanned toggle module
        self._toggles: Dict[str, Tuple[ParsedModule, int]] = {}
        #: rel-path of every scanned module (stale-entry detection)
        self._scanned: Dict[str, ParsedModule] = {}

    def visit_module(self, ctx: CheckContext, module: ParsedModule) -> None:
        if _is_exempt(module.basename):
            return
        self._scanned[module.rel] = module
        line = module_toggle_line(module.tree)
        if line is not None:
            self._toggles[module.rel] = (module, line)

    def finalize(self, ctx: CheckContext) -> None:
        manifest_path = ctx.parity_manifest or DEFAULT_MANIFEST
        if ctx.parity_manifest is None:
            try:
                manifest_path.resolve().relative_to(ctx.root.resolve())
            except ValueError:
                # the checked-in manifest belongs to a different tree than
                # the one being scanned (a fixture root, a tmp dir): its
                # entries cannot be resolved here, so the rule stands down
                return
        try:
            manifest_rel = manifest_path.resolve().relative_to(
                ctx.root.resolve()).as_posix()
        except ValueError:
            manifest_rel = manifest_path.as_posix()
        try:
            raw = json.loads(manifest_path.read_text(encoding="utf-8"))
        except OSError as exc:
            ctx.report(None, 0, self.code,
                       f"parity manifest unreadable: {exc}", rel=manifest_rel)
            return
        except json.JSONDecodeError as exc:
            ctx.report(None, 0, self.code,
                       f"parity manifest is not valid JSON: {exc}",
                       rel=manifest_rel)
            return
        entries = raw.get("modules") if isinstance(raw, dict) else None
        if not isinstance(entries, dict):
            ctx.report(None, 0, self.code,
                       "parity manifest must be an object with a 'modules' "
                       "mapping of {module: property-test file}",
                       rel=manifest_rel)
            return

        for rel, (module, line) in sorted(self._toggles.items()):
            if rel not in entries:
                ctx.report(module, line, self.code,
                           f"module {rel!r} defines a 'vectorized' toggle "
                           f"but is not in the parity manifest "
                           f"({manifest_rel}); map it to its "
                           "scalar-vs-array property-test file")

        for rel, test_rel in sorted(entries.items()):
            if not isinstance(test_rel, str):
                ctx.report(None, 0, self.code,
                           f"parity manifest entry {rel!r} must map to a "
                           "test-file path string", rel=manifest_rel)
                continue
            if not (ctx.root / rel).is_file():
                ctx.report(None, 0, self.code,
                           f"parity manifest names missing module {rel!r}",
                           rel=manifest_rel)
            elif rel in self._scanned and rel not in self._toggles:
                module = self._scanned[rel]
                ctx.report(module, 1, self.code,
                           f"module {rel!r} is in the parity manifest but no "
                           "longer defines a 'vectorized' toggle; drop the "
                           "stale entry")
            if not (ctx.root / test_rel).is_file():
                ctx.report(None, 0, self.code,
                           f"parity manifest maps {rel!r} to missing test "
                           f"file {test_rel!r}", rel=manifest_rel)

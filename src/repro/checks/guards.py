"""Pointer-guard dominance analysis for the hot-path emission contract.

The tracing/metrics layers keep their disabled path down to *one pointer
test* (``if self._trace is not None: ...``, PRs 5/7).  RC03 enforces the
shape of that test: every use of an observability handle must be dominated
by an explicit ``is not None`` check **on the same name**.  This module
answers the one question the checker asks: *is this call expression
guaranteed, syntactically, to run only when ``recv`` is not None?*

Recognised guard shapes (``X`` is the receiver's dotted name)::

    if X is not None:                 # ancestor if, call in the body
        X.emit(...)

    if X is None:                     # ancestor if, call in the else branch
        ...
    else:
        X.emit(...)

    y = X.timer("...") if X is not None else None     # conditional expression

    if X is not None and other:       # and-chain: every operand must hold
        X.emit(...)

    if X is None or not wanted:       # or-chain short-circuit inside the test
        return ...                    # …and early-return: X non-None below
    X.observe(...)

The analysis is deliberately *syntactic*: it never tracks assignments
(rebinding ``X`` after the guard defeats it — and also defeats the
convention the rule exists to protect), and unknown shapes count as
unguarded.  False positives are silenced with an explicit
``# repro-check: ignore[RC03]`` carrying a rationale, which is exactly the
review speed bump the contract wants.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from .base import dotted_name

__all__ = ["GuardIndex"]

#: statements that terminate the fallthrough path of an early-return guard
_TERMINATORS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def _is_none_test(node: ast.expr, recv: str, *, negated: bool) -> bool:
    """``X is None`` (negated=False) or ``X is not None`` (negated=True)."""
    if not isinstance(node, ast.Compare) or len(node.ops) != 1:
        return False
    op = node.ops[0]
    wanted = ast.IsNot if negated else ast.Is
    if not isinstance(op, wanted):
        return False
    left, right = node.left, node.comparators[0]
    none_side = right if _is_none_const(right) else (
        left if _is_none_const(left) else None)
    name_side = left if none_side is right else right
    if none_side is None:
        return False
    return dotted_name(name_side) == recv


def _is_none_const(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _test_implies_nonnull(test: ast.expr, recv: str) -> bool:
    """When ``test`` evaluates true, is ``recv`` guaranteed non-None?"""
    if _is_none_test(test, recv, negated=True):
        return True
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_test_implies_nonnull(value, recv) for value in test.values)
    return False


def _test_false_implies_nonnull(test: ast.expr, recv: str) -> bool:
    """When ``test`` evaluates false, is ``recv`` guaranteed non-None?"""
    if _is_none_test(test, recv, negated=False):
        return True
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        return any(_is_none_test(value, recv, negated=False)
                   for value in test.values)
    return False


def _body_terminates(body: List[ast.stmt]) -> bool:
    return bool(body) and isinstance(body[-1], _TERMINATORS)


class GuardIndex:
    """Parent links + guard queries over one module's AST."""

    def __init__(self, tree: ast.Module) -> None:
        self._parent: Dict[ast.AST, Tuple[ast.AST, str, Optional[int]]] = {}
        for parent in ast.walk(tree):
            for fieldname, value in ast.iter_fields(parent):
                if isinstance(value, ast.AST):
                    self._parent[value] = (parent, fieldname, None)
                elif isinstance(value, list):
                    for index, item in enumerate(value):
                        if isinstance(item, ast.AST):
                            self._parent[item] = (parent, fieldname, index)

    def is_guarded(self, node: ast.AST, recv: str) -> bool:
        """Is ``node`` dominated by an ``is not None`` test on ``recv``?"""
        child = node
        while child in self._parent:
            parent, fieldname, index = self._parent[child]
            if isinstance(parent, ast.If):
                if fieldname == "body" and _test_implies_nonnull(parent.test, recv):
                    return True
                if fieldname == "orelse" and \
                        _test_false_implies_nonnull(parent.test, recv):
                    return True
            elif isinstance(parent, ast.IfExp):
                if fieldname == "body" and _test_implies_nonnull(parent.test, recv):
                    return True
                if fieldname == "orelse" and \
                        _test_false_implies_nonnull(parent.test, recv):
                    return True
            elif isinstance(parent, ast.BoolOp) and index is not None and index > 0:
                # short-circuit: operand i runs only after 0..i-1 resolved
                earlier = parent.values[:index]
                if isinstance(parent.op, ast.And) and any(
                        _test_implies_nonnull(value, recv) for value in earlier):
                    return True
                if isinstance(parent.op, ast.Or) and any(
                        _is_none_test(value, recv, negated=False)
                        for value in earlier):
                    return True
            if index is not None and isinstance(parent, ast.AST) and \
                    self._early_return_guard(parent, fieldname, index, recv):
                return True
            # stop climbing out of the enclosing function: a guard in an
            # *outer* function does not dominate calls in a nested one
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                return False
            child = parent
        return False

    def _early_return_guard(self, parent: ast.AST, fieldname: str,
                            index: int, recv: str) -> bool:
        """A preceding ``if X is None: return/raise/...`` sibling statement."""
        siblings = getattr(parent, fieldname, None)
        if not isinstance(siblings, list):
            return False
        for prior in siblings[:index]:
            if isinstance(prior, ast.If) and _body_terminates(prior.body) and \
                    _test_false_implies_nonnull(prior.test, recv):
                return True
        return False

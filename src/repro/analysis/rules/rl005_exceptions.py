"""RL005 — exception hygiene: no silent swallowing, ever; serve paths react.

Fault tolerance in this stack is *explicit*: a poison row becomes a
``QuarantinedRows`` event, a failing sink becomes ``SinkDisabled``, a torn
registry version is quarantined with a ``RegistryRecovery`` record.  A
handler that silently eats an exception deletes that audit trail.  Three
checks, strictest first:

1. bare ``except:`` — banned everywhere (it catches ``KeyboardInterrupt``
   and ``SystemExit``, breaking graceful shutdown);
2. ``except Exception/BaseException`` whose body is only ``pass``/``...`` —
   banned everywhere;
3. under ``repro/serve/``, a broad handler must *do* something: re-raise,
   or make at least one call (emit an event, log, retry, clean up).  A
   handler body with no ``raise`` and no call expression is treated as
   swallowed.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import LintContext, ParsedModule
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, ScopedVisitor, in_serve_package

__all__ = ["ExceptionHygieneRule"]

_BROAD = frozenset({"Exception", "BaseException"})


def _is_broad(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:
        return True
    candidates = node.elts if isinstance(node, ast.Tuple) else [node]
    return any(
        isinstance(c, ast.Name) and c.id in _BROAD for c in candidates
    )


def _body_is_noop(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or ellipsis
        return False
    return True


def _body_reacts(body: list[ast.stmt]) -> bool:
    """True when the handler re-raises, returns a value, or calls anything."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Raise, ast.Call)):
                return True
            if isinstance(node, ast.Return) and node.value is not None:
                return True
            if isinstance(node, (ast.Continue, ast.Break)):
                return True
    return False


class _Visitor(ScopedVisitor):
    def __init__(self, rule: "ExceptionHygieneRule", module: ParsedModule) -> None:
        super().__init__()
        self.rule = rule
        self.module = module
        self.in_serve = in_serve_package(module)
        self.findings: list[Finding] = []

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    "bare `except:` catches KeyboardInterrupt/SystemExit and "
                    "breaks graceful shutdown; name the exceptions",
                    context=self.qualname,
                )
            )
        elif _is_broad(node):
            if _body_is_noop(node.body):
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        node,
                        "broad `except` with a pass-only body silently "
                        "swallows failures; handle, log, or re-raise",
                        context=self.qualname,
                    )
                )
            elif self.in_serve and not _body_reacts(node.body):
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        node,
                        "broad `except` in repro.serve neither re-raises nor "
                        "calls anything (emit/log/retry); degradations must "
                        "leave an audit trail",
                        context=self.qualname,
                    )
                )
        self.generic_visit(node)


class ExceptionHygieneRule(Rule):
    rule_id = "RL005"
    title = "No bare/ swallowed excepts; serve handlers re-raise or emit"
    severity = "error"
    false_negatives = (
        "A serve handler that calls something irrelevant (e.g. str()) "
        "counts as reacting; semantic usefulness of the reaction is not "
        "judged."
    )

    def check_module(
        self, module: ParsedModule, context: LintContext
    ) -> Iterable[Finding]:
        visitor = _Visitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings

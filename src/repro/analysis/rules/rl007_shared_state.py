"""RL007 — shared-state discipline: pool-submitted code must not mutate self.

``ShardedDetectionService`` keeps thread-sharded results identical to the
sequential service by construction: the one job submitted to its worker
pool (scoring a batch ahead) is a pure function of the batch and the model,
and every stage that touches state (quarantine bookkeeping, thresholds,
drift, the per-batch tail, the swap) runs on the parent, in stream order.
This rule pins the submit side of that contract inside any ``parallel.py``
under ``repro/serve/``:

- for every ``<pool>.submit(target, ...)`` call, the ``target`` is resolved
  within the module (``self._method`` / ``Class._method`` -> the method
  def, a bare name -> the module-level function def);
- a resolved target whose body assigns to ``self.<attr>`` or declares
  ``global`` is flagged, whether it is a method or a module-level function:
  pool workers are threads, so worker code would be mutating state the
  parent and sibling workers share.

Documented false-negative contract: only *direct* submit targets are
analyzed — callees of the target (e.g. the inherited scoring method it
calls) are not traced, aliased callables (``fn = self._work; pool.submit
(fn)``) are not resolved, and mutations through method calls rather than
attribute stores are invisible.  The rule is a tripwire for the obvious
regression, not an escape analysis.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import LintContext, ParsedModule
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, in_serve_package

__all__ = ["SharedStateRule"]


def _function_index(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Callable name -> def node, for module-level functions and methods."""
    index: dict[str, ast.FunctionDef] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            index.setdefault(node.name, node)
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    index.setdefault(stmt.name, stmt)
    return index


def _submit_targets(tree: ast.Module) -> list[tuple[str, int]]:
    targets: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
        ):
            target = node.args[0]
            if isinstance(target, ast.Name):
                targets.append((target.id, node.lineno))
            elif isinstance(target, ast.Attribute):
                targets.append((target.attr, node.lineno))
    return targets


def _shared_mutations(func: ast.FunctionDef) -> list[tuple[str, int]]:
    mutations: list[tuple[str, int]] = []
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    mutations.append((f"self.{target.attr}", target.lineno))
        elif isinstance(node, ast.Global):
            mutations.append((f"global {', '.join(node.names)}", node.lineno))
    return mutations


class SharedStateRule(Rule):
    rule_id = "RL007"
    title = "Pool-submitted callables never mutate parent-shared state"
    severity = "error"
    false_negatives = (
        "Only direct submit targets resolvable by name within parallel.py "
        "are analyzed; callee chains, aliased callables, and mutation via "
        "method calls are not traced."
    )

    def check_module(
        self, module: ParsedModule, context: LintContext
    ) -> Iterable[Finding]:
        if not (
            in_serve_package(module)
            and module.display_path.endswith("parallel.py")
        ):
            return ()
        index = _function_index(module.tree)
        findings: list[Finding] = []
        checked: set[str] = set()
        for name, submit_line in _submit_targets(module.tree):
            func = index.get(name)
            if func is None or name in checked:
                continue
            checked.add(name)
            for description, lineno in _shared_mutations(func):
                findings.append(
                    self.finding(
                        module,
                        None,
                        f"`{name}` is submitted to a worker pool (line "
                        f"{submit_line}) but mutates shared state "
                        f"(`{description}`); move the mutation to the "
                        "parent's in-order serving code",
                        context=name,
                        line=lineno,
                    )
                )
        return findings

"""reprolint: AST-based machine-checks for the serving stack's contracts.

The serving layer's correctness rests on conventions — bit-identical
sequential/thread runs, pickle-free seeded snapshots, every
degradation an auditable sink event, every pipeline stage traced — that no
type checker sees.  This package encodes each convention as a small
stdlib-``ast`` rule (ten rules, ``RL001``–``RL011`` without ``RL007``; see
:mod:`repro.analysis.rules`), runs them in a single pass over one shared
parse (:func:`run_lint`), grandfathers deliberate exceptions through a
committed baseline (:mod:`repro.analysis.baseline`), and reports in three
formats — compiler text, ``read_events``-compatible JSONL, and sectioned
MET/NOT_MET verdicts (:mod:`repro.analysis.report`).  Each run parses and
checks every file it is given; nothing is cached between runs.  ``repro lint`` is the CLI; the
tier-1 test ``tests/analysis/test_lint_src_clean.py`` is the gate that
keeps ``src/`` clean forever.
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline, BaselineEntry, write_baseline
from repro.analysis.engine import (
    LintContext,
    LintResult,
    ParsedModule,
    lint_parsed,
    parse_module,
    run_lint,
)
from repro.analysis.findings import Finding
from repro.analysis.report import (
    build_lint_report,
    load_lint_events,
    render_lint_markdown,
    render_text,
    to_event_dicts,
    write_lint_report_files,
)
from repro.analysis.rules import RULE_CLASSES, Rule, default_rules, rules_by_id

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintContext",
    "LintResult",
    "ParsedModule",
    "RULE_CLASSES",
    "Rule",
    "build_lint_report",
    "default_rules",
    "lint_parsed",
    "load_lint_events",
    "parse_module",
    "render_lint_markdown",
    "render_text",
    "rules_by_id",
    "run_lint",
    "to_event_dicts",
    "write_baseline",
    "write_lint_report_files",
]

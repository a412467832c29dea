"""reprolint output: text, JSONL events, and MET/NOT_MET verdict reports.

Three renderings of one :class:`~repro.analysis.engine.LintResult`:

- :func:`render_text` — compiler-style ``path:line:col`` lines plus a
  summary, for interactive use;
- :func:`to_event_dicts` / :func:`load_lint_events` — one JSON object per
  finding plus a trailing ``lint_summary`` object, the same JSONL shape the
  serving sinks write, so the stream round-trips through
  :func:`repro.serve.sinks.read_events` and downstream tooling can treat
  lint findings as just another event log;
- :func:`build_lint_report` / :func:`render_lint_markdown` — a sectioned
  MET/NOT_MET report, one section per rule, built and rendered with the
  :mod:`repro.verdicts` grammar that serving run reports use (``error``
  findings are *major* check failures, ``warning`` findings *minor*).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.analysis.engine import LintResult
from repro.analysis.findings import Finding
from repro.analysis.rules import RULE_CLASSES
from repro.verdicts import check_line_md, make_check, rollup_verdict, section_heading_md

__all__ = [
    "build_lint_report",
    "load_lint_events",
    "render_lint_markdown",
    "render_text",
    "to_event_dicts",
    "write_lint_report_files",
]

FORMAT_VERSION = 1
_MAX_EVIDENCE_FINDINGS = 5


def _summary_counts(result: LintResult) -> dict:
    by_rule: dict[str, int] = {}
    for finding in result.findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    return {
        "n_findings": len(result.findings),
        "n_new": len(result.new),
        "n_baselined": len(result.baselined),
        "n_files": result.context.n_files,
        "by_rule": dict(sorted(by_rule.items())),
    }


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------


def render_text(result: LintResult) -> str:
    lines = []
    for finding in result.findings:
        suffix = "  [baselined]" if finding.baselined else ""
        lines.append(
            f"{finding.location()}: {finding.rule} [{finding.severity}] "
            f"{finding.message}{suffix}"
        )
    counts = _summary_counts(result)
    lines.append(
        f"{counts['n_findings']} finding(s) "
        f"({counts['n_new']} new, {counts['n_baselined']} baselined) "
        f"across {counts['n_files']} file(s)"
    )
    if counts["by_rule"]:
        lines.append(
            "by rule: "
            + ", ".join(f"{rule}={n}" for rule, n in counts["by_rule"].items())
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSONL events (read back with repro.serve.sinks.read_events)
# ---------------------------------------------------------------------------


def to_event_dicts(result: LintResult) -> list[dict]:
    """Findings as JSONL-ready dicts, closed by one ``lint_summary`` event."""
    events = [finding.to_dict() for finding in result.findings]
    summary = {"type": "lint_summary", "format_version": FORMAT_VERSION}
    summary.update(_summary_counts(result))
    summary["exit_code"] = result.exit_code
    events.append(summary)
    return events


def load_lint_events(path: str | Path) -> tuple[list[Finding], dict]:
    """Round-trip a ``--format json`` file back into findings + summary.

    Delegates line handling to :func:`repro.serve.sinks.read_events`, so the
    crash-recovery contract (drop a truncated trailing line, raise on
    mid-file corruption) is exactly the event-log one.
    """
    from repro.serve.sinks import read_events

    findings: list[Finding] = []
    summary: dict = {}
    for event in read_events(path):
        if event.get("type") == "lint_finding":
            findings.append(Finding.from_dict(event))
        elif event.get("type") == "lint_summary":
            summary = event
    return findings, summary


# ---------------------------------------------------------------------------
# MET/NOT_MET report (the repro.verdicts grammar)
# ---------------------------------------------------------------------------


def build_lint_report(
    result: LintResult, *, generated_at: str | None = None, title: str = "reprolint report"
) -> dict:
    """Build the report payload (pure: result in, dict out).

    One section per registered rule; a rule's check fails when it produced
    *new* (non-baselined) findings, with severity mapped from the findings
    (``error`` -> major, ``warning``-only -> minor).  Baselined findings are
    listed as evidence but never fail a check.
    """
    sections = []
    for index, rule_cls in enumerate(RULE_CLASSES, start=1):
        rule_id = rule_cls.rule_id
        mine = [f for f in result.findings if f.rule == rule_id]
        new = [f for f in mine if not f.baselined]
        severity = (
            "major"
            if any(f.severity == "error" for f in new) or not new
            else "minor"
        )
        evidence: dict[str, Any] = {
            "n_new": len(new),
            "n_baselined": len(mine) - len(new),
        }
        if new:
            evidence["findings"] = [
                f"{f.location()} {f.message}" for f in new[:_MAX_EVIDENCE_FINDINGS]
            ]
            if len(new) > _MAX_EVIDENCE_FINDINGS:
                evidence["truncated"] = len(new) - _MAX_EVIDENCE_FINDINGS
        checks = [
            make_check(
                rule_id,
                rule_cls.title,
                not new,
                severity=severity,
                evidence=evidence,
            )
        ]
        sections.append(
            {
                "index": index,
                "title": f"{rule_id} — {rule_cls.title}",
                "verdict": rollup_verdict(checks),
                "checks": checks,
                "data": {},
            }
        )
    all_checks = [c for section in sections for c in section["checks"]]
    report = {
        "format_version": FORMAT_VERSION,
        "title": title,
        "overall": rollup_verdict(all_checks),
        "summary": _summary_counts(result),
        "sections": sections,
    }
    if generated_at is not None:
        report["generated_at"] = generated_at
    return report


def render_lint_markdown(report: Mapping[str, Any]) -> str:
    """Render the report payload as markdown (telemetry report style)."""
    summary = report.get("summary", {})
    lines = [
        f"# {report.get('title', 'reprolint report')}",
        "",
        f"- Overall: **{report.get('overall', 'NOT_MET')}**",
        f"- Findings: {summary.get('n_findings', 0)}"
        f" ({summary.get('n_new', 0)} new,"
        f" {summary.get('n_baselined', 0)} baselined)"
        f" across {summary.get('n_files', 0)} files",
    ]
    if report.get("generated_at"):
        lines.append(f"- Generated at: `{report['generated_at']}`")
    lines.append("")
    lines.append("## Rules")
    for section in report.get("sections", []):
        lines.append("")
        lines.append(section_heading_md(section))
        lines.append("")
        for check in section.get("checks", []):
            lines.append(check_line_md(check))
            evidence = check.get("evidence", {})
            for item in evidence.get("findings", []):
                lines.append(f"  - {item}")
            if evidence.get("truncated"):
                lines.append(f"  - … {evidence['truncated']} more")
            if evidence.get("n_baselined"):
                lines.append(
                    f"  - ({evidence['n_baselined']} baselined finding(s) "
                    "grandfathered)"
                )
    lines.append("")
    return "\n".join(lines)


def write_lint_report_files(
    out_dir: str | Path, report: Mapping[str, Any]
) -> tuple[Path, Path]:
    """Write ``lint_report.json`` + ``lint_report.md``; return the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "lint_report.json"
    md_path = out_dir / "lint_report.md"
    json_path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    md_path.write_text(render_lint_markdown(report), encoding="utf-8")
    return json_path, md_path

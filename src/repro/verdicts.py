"""The MET/NOT_MET verdict grammar shared by run reports and lint reports.

A *check* is one judged claim: an id, a title, a ``MET``/``NOT_MET``
verdict, a severity (``"major"`` or ``"minor"``) and the evidence it was
judged on.  Checks roll up mechanically: **NOT_MET** when any major check
fails, **PARTIALLY_MET** when only minor checks fail, **MET** otherwise.
Serving run reports (:mod:`repro.serve.telemetry.report`) and reprolint
reports (:mod:`repro.analysis.report`) both build and render their checks
here, so the two read identically.  Stdlib only: the linter imports it
without importing the serving stack.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = [
    "check_line_md",
    "make_check",
    "rollup_verdict",
    "round_floats",
    "section_heading_md",
]


def round_floats(value: Any) -> Any:
    """Round floats (recursively) so evidence blobs stay readable."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v) for v in value]
    return value


def make_check(
    check_id: str,
    title: str,
    met: bool,
    *,
    severity: str = "major",
    evidence: Mapping[str, Any] | None = None,
) -> dict:
    return {
        "id": check_id,
        "title": title,
        "verdict": "MET" if met else "NOT_MET",
        "severity": severity,
        "evidence": round_floats(dict(evidence or {})),
    }


def rollup_verdict(checks: Sequence[Mapping[str, Any]]) -> str:
    failed = [c for c in checks if c["verdict"] != "MET"]
    if any(c["severity"] == "major" for c in failed):
        return "NOT_MET"
    if failed:
        return "PARTIALLY_MET"
    return "MET"


def section_heading_md(section: Mapping[str, Any]) -> str:
    return (
        f"### {section.get('index', '?')}. {section.get('title', '?')}"
        f" — **{section.get('verdict', 'NOT_MET')}**"
    )


def check_line_md(check: Mapping[str, Any]) -> str:
    return (
        f"- `{check['id']}` **{check['verdict']}**"
        f" ({check['severity']}) — {check['title']}"
    )

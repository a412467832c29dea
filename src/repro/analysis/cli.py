"""``repro lint``: run the reprolint rule set from the command line.

Usage::

    repro lint                          # lint src/ (plus README.md) from cwd
    repro lint src/repro benchmarks     # explicit paths
    repro lint --format json --output lint.jsonl src/repro
    repro lint --format report src/repro
    repro lint --rules RL001,RL005 src/repro
    repro lint --write-baseline src/repro
    repro lint --list-rules

Exit codes: ``0`` — no new findings (baselined ones are reported but do not
fail), ``1`` — at least one new finding, ``2`` — usage error (bad path,
unknown rule, unreadable baseline).  The baseline defaults to
``.reprolint-baseline.json`` in the current directory when present; pass
``--no-baseline`` to see everything fail again.  ``--write-baseline``
needs the full rule set, so combining it with ``--rules`` is a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from repro.analysis.baseline import DEFAULT_BASELINE_NAME, Baseline, write_baseline
from repro.analysis.engine import run_lint
from repro.analysis.report import (
    build_lint_report,
    render_lint_markdown,
    render_text,
    to_event_dicts,
    write_lint_report_files,
)
from repro.analysis.rules import RULE_CLASSES, rules_by_id

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Statically check the serving stack's contracts (reprolint).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: ./src, falling back to .)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "report"),
        default="text",
        help="text diagnostics, JSONL events, or a MET/NOT_MET report",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write output here instead of stdout (a directory for --format "
        "report, which writes lint_report.json + lint_report.md)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: ./{DEFAULT_BASELINE_NAME} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings of every "
        "rule (existing reasons are preserved, fixed entries are dropped, new "
        "entries get a placeholder; cannot be combined with --rules)",
    )
    parser.add_argument(
        "--docs",
        type=Path,
        nargs="*",
        default=None,
        help="markdown files to cross-check (default: ./README.md when present)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    return parser


def _list_rules() -> str:
    lines = ["rule    severity  title"]
    for cls in RULE_CLASSES:
        lines.append(f"{cls.rule_id}   {cls.severity:<8}  {cls.title}")
    return "\n".join(lines)


def _default_paths() -> list[str]:
    src = Path("src")
    return [str(src)] if src.is_dir() else ["."]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Tolerate being handed the full ``repro``-level argv (["lint", ...]).
    if argv and argv[0] == "lint":
        argv = argv[1:]
    args = _parser().parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    try:
        rules = (
            rules_by_id(part for part in args.rules.split(",") if part.strip())
            if args.rules
            else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if rules is not None and args.write_baseline:
        # A subset's findings would replace every other rule's entries.
        print(
            "error: --write-baseline rewrites the whole baseline and needs "
            "every rule; drop --rules",
            file=sys.stderr,
        )
        return 2

    baseline = None
    baseline_path = args.baseline
    if not args.no_baseline:
        if baseline_path is None and Path(DEFAULT_BASELINE_NAME).is_file():
            baseline_path = Path(DEFAULT_BASELINE_NAME)
        if baseline_path is not None:
            try:
                baseline = Baseline.load(baseline_path)
            except (OSError, ValueError, KeyError) as exc:
                print(f"error: cannot load baseline: {exc}", file=sys.stderr)
                return 2

    docs = args.docs
    if docs is None:
        readme = Path("README.md")
        docs = [readme] if readme.is_file() else []

    try:
        result = run_lint(
            args.paths or _default_paths(), rules=rules, docs=docs, baseline=baseline
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = baseline_path if baseline_path is not None else Path(DEFAULT_BASELINE_NAME)
        written = write_baseline(target, result.findings, keep=baseline)
        print(f"wrote {len(written)} baseline entr(y/ies) to {target}")
        undocumented = written.undocumented()
        if undocumented:
            print(
                f"note: {len(undocumented)} entr(y/ies) carry the placeholder "
                "reason; document them before committing"
            )
        return 0

    if args.format == "text":
        text = render_text(result)
        if args.output is not None:
            args.output.write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
    elif args.format == "json":
        payload = "\n".join(
            json.dumps(event, sort_keys=True) for event in to_event_dicts(result)
        )
        if args.output is not None:
            args.output.write_text(payload + "\n", encoding="utf-8")
        else:
            print(payload)
    else:  # report
        generated_at = datetime.now(timezone.utc).isoformat(  # reprolint: disable=RL001
            timespec="seconds"
        )
        report = build_lint_report(result, generated_at=generated_at)
        if args.output is not None:
            json_path, md_path = write_lint_report_files(args.output, report)
            print(f"wrote {json_path} and {md_path}")
        else:
            print(render_lint_markdown(report))

    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())

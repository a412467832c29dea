"""CLI behaviour of ``repro lint``: exit codes, JSON round-trip, golden output.

The golden test pins the exact JSONL the CLI emits for a known-bad tree (the
RL003 fixture planted at ``src/repro/serve/fixture_storage.py``), so the
event schema — field names, the ``lint_summary`` trailer, exit codes — is a
versioned contract, not an implementation detail.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.report import load_lint_events
from repro.analysis.rules import RULE_CLASSES
from repro.experiments.cli import main as repro_main
from repro.serve.sinks import read_events

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden_lint_events.jsonl"
REPO_ROOT = Path(__file__).resolve().parents[2]


def plant_bad_tree(tmp_path: Path) -> Path:
    """A minimal pretend repo whose serve package imports pickle."""
    serve_dir = tmp_path / "src" / "repro" / "serve"
    serve_dir.mkdir(parents=True)
    shutil.copy(FIXTURES / "rl003_bad.py", serve_dir / "fixture_storage.py")
    return tmp_path


def test_shipped_tree_exits_zero(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert lint_main(["src/repro"]) == 0


def test_bad_tree_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(plant_bad_tree(tmp_path))
    assert lint_main(["src", "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "RL003" in out
    assert "fixture_storage.py" in out


def test_unknown_rule_id_is_a_usage_error(capsys):
    assert lint_main(["src", "--rules", "RL999"]) == 2
    assert "RL999" in capsys.readouterr().err


def test_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for cls in RULE_CLASSES:
        assert cls.rule_id in out


def test_experiments_cli_dispatches_lint(tmp_path, monkeypatch):
    monkeypatch.chdir(plant_bad_tree(tmp_path))
    assert repro_main(["lint", "src", "--no-baseline"]) == 1


def test_json_output_round_trips_through_read_events(tmp_path, monkeypatch):
    monkeypatch.chdir(plant_bad_tree(tmp_path))
    out_path = tmp_path / "events.jsonl"
    code = lint_main(
        ["src", "--format", "json", "--no-baseline", "--output", str(out_path)]
    )
    assert code == 1

    # The raw file reads back through the sink-event loader...
    events = read_events(out_path)
    assert events, "no events written"
    assert events[-1]["type"] == "lint_summary"
    assert all(e["type"] == "lint_finding" for e in events[:-1])

    # ...and through the typed loader, which rebuilds Finding objects.
    findings, summary = load_lint_events(out_path)
    assert summary["n_new"] == len(findings) == len(events) - 1
    assert summary["exit_code"] == 1
    assert {f.rule for f in findings} == {"RL003"}


def test_json_output_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(plant_bad_tree(tmp_path))
    assert lint_main(["src", "--format", "json", "--no-baseline"]) == 1
    got = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line]
    want = [
        json.loads(line)
        for line in GOLDEN.read_text(encoding="utf-8").splitlines()
        if line
    ]
    assert got == want


def test_write_baseline_then_lint_is_clean(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(plant_bad_tree(tmp_path))
    assert lint_main(["src", "--write-baseline"]) == 0
    baseline_path = tmp_path / ".reprolint-baseline.json"
    assert baseline_path.exists()
    payload = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert len(payload["findings"]) == 6
    capsys.readouterr()

    # The freshly-written baseline is discovered from cwd: the same tree now
    # exits 0, with the findings reported as baselined, not silently dropped.
    assert lint_main(["src"]) == 0
    out = capsys.readouterr().out
    assert "[baselined]" in out
    assert "6 baselined" in out


def test_write_baseline_with_a_rules_subset_is_a_usage_error(
    tmp_path, monkeypatch, capsys
):
    # A subset's findings would overwrite every other rule's entries.
    monkeypatch.chdir(plant_bad_tree(tmp_path))
    baseline_path = tmp_path / ".reprolint-baseline.json"
    assert lint_main(["src", "--write-baseline"]) == 0
    written = baseline_path.read_text(encoding="utf-8")
    capsys.readouterr()

    assert lint_main(["src", "--rules", "RL005", "--write-baseline"]) == 2
    err = capsys.readouterr().err
    assert "--write-baseline" in err and "--rules" in err
    assert baseline_path.read_text(encoding="utf-8") == written
    assert lint_main(["src"]) == 0


def test_report_format_writes_met_not_met_files(tmp_path, monkeypatch):
    monkeypatch.chdir(plant_bad_tree(tmp_path))
    out_dir = tmp_path / "report"
    code = lint_main(
        ["src", "--format", "report", "--no-baseline", "--output", str(out_dir)]
    )
    assert code == 1
    report = json.loads((out_dir / "lint_report.json").read_text(encoding="utf-8"))
    verdicts = {
        s["title"].split(" — ")[0]: s["verdict"] for s in report["sections"]
    }
    assert verdicts["RL003"] == "NOT_MET"
    assert all(v == "MET" for rule, v in verdicts.items() if rule != "RL003")
    assert report["overall"] == "NOT_MET"
    markdown = (out_dir / "lint_report.md").read_text(encoding="utf-8")
    assert "NOT_MET" in markdown


@pytest.mark.parametrize("flag", [["--help"], ["lint", "--help"]])
def test_help_exits_zero(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        lint_main(flag)
    assert exc.value.code == 0
    assert "reprolint" in capsys.readouterr().out.lower()

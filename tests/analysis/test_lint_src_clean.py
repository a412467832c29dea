"""Tier-1 gate: the shipped tree stays clean under the full reprolint rule set.

This is the enforcement half of ``repro.analysis``: any new violation of the
serving-stack contracts (the ten rules) in ``src/`` or ``benchmarks/`` fails
the default test pass.  Deliberate, documented exceptions live in the committed
baseline at the repo root; the baseline itself is kept small and justified.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Baseline, run_lint
from repro.analysis.baseline import DEFAULT_BASELINE_NAME

pytestmark = pytest.mark.tier1

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / DEFAULT_BASELINE_NAME
LINT_PATHS = [REPO_ROOT / "src", REPO_ROOT / "benchmarks"]
README = REPO_ROOT / "README.md"


def run_repo_lint():
    baseline = Baseline.load(BASELINE_PATH) if BASELINE_PATH.exists() else None
    docs = [README] if README.exists() else []
    return run_lint(LINT_PATHS, docs=docs, baseline=baseline)


@pytest.fixture(scope="module")
def repo_lint():
    """One full-tree lint shared by the gate tests below."""
    return run_repo_lint()


def test_src_tree_has_no_new_findings(repo_lint):
    result = repo_lint
    new = result.new
    detail = "\n".join(f"{f.location()} {f.rule} {f.message}" for f in new)
    assert not new, f"new reprolint findings:\n{detail}"
    assert result.exit_code == 0


def test_lint_actually_scanned_the_tree(repo_lint):
    """Guard against a silently-empty scan reading as a clean tree."""
    result = repo_lint
    assert len(result.context.modules) > 50
    assert not result.context.parse_errors


def test_baseline_is_small_and_documented():
    baseline = Baseline.load(BASELINE_PATH)
    assert len(baseline.entries) <= 5
    assert baseline.undocumented() == []


def test_baseline_entries_still_match_real_findings(repo_lint):
    """A baseline entry whose finding was fixed should be deleted, not kept."""
    baseline = Baseline.load(BASELINE_PATH)
    result = repo_lint
    for entry in baseline.entries:
        assert any(
            entry.matches(finding) for finding in result.baselined
        ), f"stale baseline entry: {entry.rule} {entry.path} ({entry.context})"


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_check_passes():
    proc = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_lint_module_runs_as_script():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli", "src", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

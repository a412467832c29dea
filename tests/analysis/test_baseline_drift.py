"""Baseline line-drift edge cases the happy path never exercises.

The baseline identifies a finding by ``(rule, path, context, line_text)``,
deliberately ignoring the line number.  That buys drift tolerance but has
corners worth pinning:

* two *identical* offending lines in one function share one identity — a
  single entry grandfathers both, and fixing only one keeps the tree green
  (the survivor still matches);
* renaming the enclosing function changes ``context``, so the entry stops
  matching and the finding comes back new — moving code must re-justify it;
* an entry whose finding was genuinely fixed goes stale, and
  ``--write-baseline`` drops exactly that entry while keeping live ones
  with their written reasons.
"""

from __future__ import annotations

import json

from repro.analysis import Baseline, BaselineEntry, LintContext, lint_parsed, parse_module
from repro.analysis.cli import main as lint_main
from repro.analysis.rules import rules_by_id

MOD_PATH = "src/repro/novelty/fixture_drift.py"

TWIN_LINES = '''\
"""Two identical offending lines in one function."""

import numpy as np


def reset_all():
    np.random.seed(0)
    np.random.seed(0)
'''


def lint(source, baseline=None):
    module = parse_module(source, MOD_PATH)
    context = LintContext(modules=[module])
    return lint_parsed(
        context, rules=rules_by_id(["RL001"]), baseline=baseline
    )


def entry_for(finding, reason="test: grandfathered"):
    return BaselineEntry(
        rule=finding.rule,
        path=finding.path,
        context=finding.context,
        line_text=finding.line_text,
        reason=reason,
    )


class TestDuplicateLineText:
    def test_one_entry_grandfathers_both_identical_lines(self):
        result = lint(TWIN_LINES)
        assert len(result.findings) == 2
        assert result.findings[0].key() == result.findings[1].key()

        baseline = Baseline([entry_for(result.findings[0])])
        again = lint(TWIN_LINES, baseline=baseline)
        assert all(f.baselined for f in again.findings)
        assert again.exit_code == 0

    def test_fixing_one_twin_keeps_the_survivor_grandfathered(self):
        result = lint(TWIN_LINES)
        baseline = Baseline([entry_for(result.findings[0])])
        one_fixed = TWIN_LINES.replace(
            "    np.random.seed(0)\n    np.random.seed(0)\n",
            "    np.random.seed(0)\n",
        )
        again = lint(one_fixed, baseline=baseline)
        assert len(again.findings) == 1
        assert again.findings[0].baselined
        assert again.exit_code == 0


class TestRenamedContext:
    def test_renaming_the_enclosing_function_unbaselines(self):
        result = lint(TWIN_LINES)
        baseline = Baseline([entry_for(result.findings[0])])
        renamed = TWIN_LINES.replace("def reset_all():", "def reseed():")
        again = lint(renamed, baseline=baseline)
        assert len(again.findings) == 2
        assert not any(f.baselined for f in again.findings)
        assert again.exit_code == 1

    def test_line_drift_without_rename_keeps_matching(self):
        result = lint(TWIN_LINES)
        baseline = Baseline([entry_for(result.findings[0])])
        shifted = TWIN_LINES.replace(
            'import numpy as np', 'import numpy as np\n\nPADDING = "moves lines"'
        )
        again = lint(shifted, baseline=baseline)
        assert all(f.baselined for f in again.findings)
        assert again.exit_code == 0


LIVE_PATH = "src/repro/novelty/fixture_live.py"

LIVE_LINE = '''\
"""One offending line that stays."""

import numpy as np


def reseed():
    np.random.seed(1)
'''


class TestWriteBaselinePrunes:
    def test_drops_fixed_keeps_live_reason(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / MOD_PATH
        target.parent.mkdir(parents=True)
        target.write_text(TWIN_LINES)
        (tmp_path / LIVE_PATH).write_text(LIVE_LINE)
        monkeypatch.chdir(tmp_path)

        # Baseline the real findings and document every entry.
        assert lint_main(["src", "--write-baseline"]) == 0
        baseline_path = tmp_path / ".reprolint-baseline.json"
        payload = json.loads(baseline_path.read_text())
        assert {e["path"] for e in payload["findings"]} == {MOD_PATH, LIVE_PATH}
        for entry in payload["findings"]:
            entry["reason"] = f"documented: {entry['path']}"
        baseline_path.write_text(json.dumps(payload))

        # Actually fix the code behind one entry, then rewrite the baseline.
        target.write_text(
            TWIN_LINES.replace("np.random.seed(0)", "rng = np.random.default_rng(0)")
        )
        assert lint_main(["src", "--write-baseline"]) == 0
        assert "wrote 1 baseline entr(y/ies)" in capsys.readouterr().out
        payload = json.loads(baseline_path.read_text())
        assert [(e["rule"], e["path"], e["reason"]) for e in payload["findings"]] == [
            ("RL001", LIVE_PATH, f"documented: {LIVE_PATH}")
        ]
        assert lint_main(["src"]) == 0

"""Cross-module behaviour of the lint gate and the semantic rules.

The fixture twins pin each rule's single-module shape; these tests pin what
only a multi-module context can show: a nondeterministic helper called from
a serve module two files away still fails the gate (through RL001 at the
helper), producers and consumers living in different files (RL010), and
README fenced blocks checked against the real flag universe with the
home-module degradation gate (RL011).
"""

from __future__ import annotations

from repro.analysis import Baseline, BaselineEntry, LintContext, lint_parsed, parse_module
from repro.analysis.rules import rules_by_id

HELPER_PATH = "src/repro/utils/fixture_helper.py"
SCORING_PATH = "src/repro/serve/fixture_scoring.py"

HELPER = '''\
"""Helper with a buried wall-clock read."""

import time


def jitter():
    return time.time() % 1.0
'''

SCORING = '''\
"""Serve-side caller two modules from the nondeterminism."""

from repro.utils.fixture_helper import jitter


def score_batch(rows):
    base = jitter()
    return [row + base for row in rows]
'''


def run_rules(modules, rule_ids, docs=(), baseline=None):
    context = LintContext(modules=list(modules), docs=list(docs))
    result = lint_parsed(
        context, rules=rules_by_id(rule_ids), baseline=baseline
    )
    return result.findings


class TestDeterminismGateAcrossModules:
    def test_full_rule_set_fails_on_the_buried_seed(self):
        """A serve path reaching a wall-clock read in another module fails
        the gate through RL001 at the read itself."""
        context = LintContext(
            modules=[parse_module(HELPER, HELPER_PATH), parse_module(SCORING, SCORING_PATH)]
        )
        result = lint_parsed(context)
        assert result.exit_code == 1
        assert [(f.rule, f.location()) for f in result.new] == [
            ("RL001", f"{HELPER_PATH}:7:11")
        ]

    def test_baselined_seed_passes_the_gate(self):
        baseline = Baseline(
            [
                BaselineEntry(
                    rule="RL001",
                    path=HELPER_PATH,
                    context="jitter",
                    line_text="return time.time() % 1.0",
                    reason="fixture: deliberately grandfathered",
                )
            ]
        )
        context = LintContext(
            modules=[parse_module(HELPER, HELPER_PATH), parse_module(SCORING, SCORING_PATH)]
        )
        assert lint_parsed(context, baseline=baseline).exit_code == 0

    def test_suppressed_seed_passes_the_gate(self):
        silenced = HELPER.replace(
            "return time.time() % 1.0",
            "return time.time() % 1.0  # reprolint: disable=RL001",
        )
        context = LintContext(
            modules=[parse_module(silenced, HELPER_PATH), parse_module(SCORING, SCORING_PATH)]
        )
        result = lint_parsed(context)
        assert result.exit_code == 0
        assert result.new == []

    def test_telemetry_seed_passes_the_gate(self):
        """A serve path calling a wall-clock read that lives in the telemetry
        package (timestamps are its job) passes the gate."""
        probe_path = "src/repro/serve/telemetry/fixture_probe.py"
        scoring = SCORING.replace(
            "repro.utils.fixture_helper", "repro.serve.telemetry.fixture_probe"
        )
        context = LintContext(
            modules=[parse_module(HELPER, probe_path), parse_module(scoring, SCORING_PATH)]
        )
        result = lint_parsed(context)
        assert result.exit_code == 0
        assert result.new == []


PRODUCER_PATH = "src/repro/serve/fixture_events.py"
CONSUMER_PATH = "src/repro/serve/fixture_reader.py"


class TestRL010CrossModule:
    def test_consumer_in_another_module_is_checked(self):
        producer = parse_module(
            'def emit(score):\n    return {"type": "alert", "score": score}\n',
            PRODUCER_PATH,
        )
        consumer = parse_module(
            "def consume(event):\n"
            '    if event.get("type") == "alrt":\n'
            '        return event["score"]\n'
            "    return None\n",
            CONSUMER_PATH,
        )
        findings = run_rules([producer, consumer], ["RL010"])
        assert [f.path for f in findings] == [CONSUMER_PATH]
        assert '"alrt"' in findings[0].message

    def test_no_producers_in_scan_means_silence(self):
        consumer = parse_module(
            "def consume(event):\n"
            '    if event.get("type") == "anything":\n'
            "        return event\n"
            "    return None\n",
            CONSUMER_PATH,
        )
        assert run_rules([consumer], ["RL010"]) == []

    def test_dynamic_producer_exempts_key_completeness(self):
        producer = parse_module(
            "def emit(extra):\n"
            '    event = {"type": "alert", **extra}\n'
            "    return event\n",
            PRODUCER_PATH,
        )
        consumer = parse_module(
            "def consume(event):\n"
            '    if event.get("type") == "alert":\n'
            '        return event["anything_goes"]\n'
            "    return None\n",
            CONSUMER_PATH,
        )
        assert run_rules([producer, consumer], ["RL010"]) == []


CLI_PATH = "src/repro/serve/cli.py"

CLI_MODULE = '''\
"""Pretend serve CLI registering the one real flag."""

import argparse


def build_parser():
    parser = argparse.ArgumentParser(prog="repro serve")
    parser.add_argument("--real-flag", help="the only flag")
    return parser
'''

README = """\
# fixture docs

```bash
repro serve --real-flag
repro serve --imaginary-flag
repro lint --any-flag-at-all
```

Outside fences, --prose-flag is never checked.
"""


class TestRL011Docs:
    def test_fenced_doc_line_checked_against_registered_flags(self):
        findings = run_rules(
            [parse_module(CLI_MODULE, CLI_PATH)],
            ["RL011"],
            docs=[("README.md", README)],
        )
        assert len(findings) == 1
        assert findings[0].path == "README.md"
        assert "--imaginary-flag" in findings[0].message
        # `repro lint`'s home module is not in the scan: its line is skipped
        # (the RL006-style degradation), and prose lines are never checked.

    def test_no_flags_registered_means_silence(self):
        plain = parse_module("def nothing():\n    return 0\n", CLI_PATH)
        assert (
            run_rules([plain], ["RL011"], docs=[("README.md", README)]) == []
        )

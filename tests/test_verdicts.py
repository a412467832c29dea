"""The MET/NOT_MET verdict grammar shared by run reports and lint reports."""

from __future__ import annotations

import pytest

from repro.verdicts import (
    check_line_md,
    make_check,
    rollup_verdict,
    round_floats,
    section_heading_md,
)


def test_make_check_records_verdict_and_rounds_evidence():
    check = make_check(
        "RP-01",
        "throughput holds",
        False,
        severity="minor",
        evidence={"rate": 1 / 3, "rows": [2 / 3, 7], "nested": {"p95": 0.1234567891}},
    )
    assert check == {
        "id": "RP-01",
        "title": "throughput holds",
        "verdict": "NOT_MET",
        "severity": "minor",
        "evidence": {"rate": 0.333333, "rows": [0.666667, 7], "nested": {"p95": 0.123457}},
    }
    assert make_check("RP-02", "t", True)["verdict"] == "MET"
    assert make_check("RP-02", "t", True)["severity"] == "major"
    assert make_check("RP-02", "t", True)["evidence"] == {}


def test_round_floats_keeps_non_floats_and_turns_tuples_into_lists():
    assert round_floats((1.00000049, "x", None, True)) == [1.0, "x", None, True]
    assert round_floats(3) == 3


@pytest.mark.parametrize(
    "verdicts, expected",
    [
        ([], "MET"),
        ([("MET", "major"), ("MET", "minor")], "MET"),
        ([("MET", "major"), ("NOT_MET", "minor")], "PARTIALLY_MET"),
        ([("NOT_MET", "minor"), ("NOT_MET", "major")], "NOT_MET"),
    ],
)
def test_rollup_verdict(verdicts, expected):
    checks = [{"verdict": verdict, "severity": severity} for verdict, severity in verdicts]
    assert rollup_verdict(checks) == expected


def test_markdown_lines():
    assert (
        section_heading_md({"index": 2, "title": "Latency", "verdict": "MET"})
        == "### 2. Latency — **MET**"
    )
    assert section_heading_md({}) == "### ?. ? — **NOT_MET**"
    check = make_check("RL003", "no bare print", False)
    assert check_line_md(check) == "- `RL003` **NOT_MET** (major) — no bare print"

"""Benchmark: reprolint full-tree latency.

Writes the ``"analysis"`` section of ``BENCH_inference.json`` (the trend
check compares it across commits) and pins the cold-lint bound.
"""

from __future__ import annotations

from run_analysis_bench import DEFAULT_OUTPUT, run_bench, write_report


def test_bench_analysis_speed():
    payload = run_bench(n_repeats=2)
    path = write_report(payload, DEFAULT_OUTPUT, section="analysis")
    print(f"[analysis section written to {path}]")

    results = payload["results"]
    for name, entry in results.items():
        assert entry["samples_per_sec"] > 0.0, name

    # A cold full-tree lint runs in the tier-1 gate — developer-facing
    # latency.  Below ~5 files/s the gate would be painful enough that
    # people start skipping it.
    cold = results["lint_full[cold]"]
    assert cold["samples_per_sec"] > 5.0

"""Guard the inference-throughput trend across PRs.

Compares a fresh ``BENCH_inference.json`` (a file passed via ``--fresh``, or
measured on the spot when omitted) against the committed baseline at the
repository root and exits non-zero when any shared entry regressed by more
than ``--threshold`` (default 20%) in ``samples_per_sec``, or when a
previously benchmarked model disappeared.  New entries are informational.

Seven sections are guarded: the single-core inference numbers under
``"results"``, the multi-core numbers under ``"parallel" -> "results"``
(written by ``run_parallel_bench.py``), the refit/swap costs under
``"lifecycle" -> "results"`` and the double-scoring costs under
``"shadow" -> "results"`` (both written by ``run_lifecycle_bench.py``), the
fault-layer costs under ``"faults" -> "results"``, the instrumentation
costs under ``"telemetry" -> "results"`` and the lint costs under
``"analysis" -> "results"`` (written by ``run_analysis_bench.py``); the
extra sections are reported with a ``parallel:`` / ``lifecycle:`` /
``shadow:`` / ``faults:`` / ``telemetry:`` / ``analysis:`` name prefix.  A fresh payload that omits an extra section
entirely skips that comparison with a note — so a quick sequential-only
measurement stays usable — but once both sides carry a section, a vanished
or slowed entry fails the check like any other.  An entry whose baseline
carries no usable ``samples_per_sec`` (missing, non-numeric, zero or
negative) is reported as a note instead of crashing the gate or silently
passing.

Usage::

    PYTHONPATH=src python benchmarks/check_bench_trend.py            # measure now
    PYTHONPATH=src python benchmarks/check_bench_trend.py --fresh new.json
    PYTHONPATH=src python benchmarks/check_bench_trend.py --threshold 0.1
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_BASELINE = BENCH_DIR.parent / "BENCH_inference.json"


def _usable_rate(entry: dict) -> float | None:
    """The entry's ``samples_per_sec`` as a positive finite float, else ``None``.

    A hand-edited or half-written benchmark file can carry a missing key, a
    string, ``NaN`` or ``0.0`` — none of which supports a meaningful relative
    comparison (and a zero baseline used to crash the gate with a division).
    """
    try:
        rate = float(entry["samples_per_sec"])
    except (KeyError, TypeError, ValueError):
        return None
    if not math.isfinite(rate) or rate <= 0.0:
        return None
    return rate


def compare_bench(
    baseline: dict, fresh: dict, *, threshold: float = 0.20
) -> tuple[list[dict], list[str]]:
    """Compare two benchmark payloads.

    Returns ``(regressions, notes)``: one regression record per entry whose
    throughput dropped by more than ``threshold`` (fractional) or that is
    missing from ``fresh``, and human-readable notes about new entries.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be a fraction in (0, 1)")
    regressions: list[dict] = []
    notes: list[str] = []

    def _compare_section(
        baseline_results: dict, fresh_results: dict, prefix: str
    ) -> None:
        for name in sorted(baseline_results):
            base_rate = _usable_rate(baseline_results[name])
            if base_rate is None:
                notes.append(
                    f"baseline entry {prefix}{name} has no usable "
                    "samples_per_sec (missing/zero/non-numeric); skipping it"
                )
                continue
            if name not in fresh_results:
                regressions.append(
                    {
                        "name": prefix + name,
                        "baseline": base_rate,
                        "fresh": None,
                        "change": None,
                    }
                )
                continue
            fresh_rate = _usable_rate(fresh_results[name])
            if fresh_rate is None:
                # A fresh run that produced garbage cannot prove it did not
                # regress — fail it like a vanished entry.
                regressions.append(
                    {
                        "name": prefix + name,
                        "baseline": base_rate,
                        "fresh": None,
                        "change": None,
                    }
                )
                continue
            change = (fresh_rate - base_rate) / base_rate
            if change < -threshold:
                regressions.append(
                    {
                        "name": prefix + name,
                        "baseline": base_rate,
                        "fresh": fresh_rate,
                        "change": change,
                    }
                )
        for name in sorted(set(fresh_results) - set(baseline_results)):
            notes.append(f"new benchmark entry (no baseline): {prefix}{name}")

    _compare_section(baseline.get("results", {}), fresh.get("results", {}), "")

    for section, runner in (
        ("parallel", "run_parallel_bench.py"),
        ("lifecycle", "run_lifecycle_bench.py"),
        ("shadow", "run_lifecycle_bench.py"),
        ("faults", "run_faults_bench.py"),
        ("telemetry", "run_telemetry_bench.py"),
        ("analysis", "run_analysis_bench.py"),
    ):
        baseline_section = baseline.get(section, {}).get("results", {})
        fresh_section = fresh.get(section)
        if baseline_section and fresh_section is None:
            notes.append(
                f"fresh payload has no {section!r} section; skipping that "
                f"comparison (rerun {runner} to guard it)"
            )
        else:
            _compare_section(
                baseline_section,
                (fresh_section or {}).get("results", {}),
                f"{section}:",
            )
    return regressions, notes


def _measure_fresh() -> dict:
    # The bench runners live next to this script; the benchmarks directory is
    # not a package, so import them by path.
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import run_analysis_bench
        import run_faults_bench
        import run_inference_bench
        import run_lifecycle_bench
        import run_parallel_bench
        import run_telemetry_bench
    finally:
        sys.path.pop(0)
    payload = run_inference_bench.run_bench()
    payload["parallel"] = run_parallel_bench.run_bench()
    payload["lifecycle"] = run_lifecycle_bench.run_bench()
    payload["shadow"] = run_lifecycle_bench.run_shadow_bench()
    payload["faults"] = run_faults_bench.run_bench()
    payload["telemetry"] = run_telemetry_bench.run_bench()
    payload["analysis"] = run_analysis_bench.run_bench()
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help="committed benchmark payload (default: repo BENCH_inference.json)",
    )
    parser.add_argument(
        "--fresh", type=Path, default=None,
        help="freshly measured payload; measured in-process when omitted",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="fractional throughput drop treated as a regression (default 0.20)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    if args.fresh is not None:
        fresh = json.loads(args.fresh.read_text())
    else:
        print("no --fresh payload given; measuring throughput now ...", flush=True)
        fresh = _measure_fresh()

    regressions, notes = compare_bench(baseline, fresh, threshold=args.threshold)
    for note in notes:
        print(note)
    if not regressions:
        print(
            f"throughput trend OK: no entry regressed more than "
            f"{args.threshold:.0%} vs {args.baseline}"
        )
        return 0
    print(f"throughput regressions (> {args.threshold:.0%} drop):")
    for entry in regressions:
        if entry["fresh"] is None:
            print(f"  {entry['name']}: missing or unusable in fresh results")
        else:
            print(
                f"  {entry['name']}: {entry['baseline']:,.0f} -> {entry['fresh']:,.0f} "
                f"samples/s ({entry['change']:+.1%})"
            )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

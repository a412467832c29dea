"""Benchmark: overhead of the telemetry layer on the serving hot path.

Writes the ``"telemetry"`` section of ``BENCH_inference.json`` (the trend
check compares it across PRs) and sanity-checks that default-on
observability stays affordable: instrumentation must cost at most a few
percent of sequential batch throughput, and the render paths that run per
scrape or per report must stay interactive.
"""

from __future__ import annotations

from run_telemetry_bench import DEFAULT_OUTPUT, run_bench, write_report


def test_bench_telemetry_overheads():
    payload = run_bench(batch=4096, n_repeats=3)
    path = write_report(payload, DEFAULT_OUTPUT, section="telemetry")
    print(f"[telemetry section written to {path}]")

    results = payload["results"]
    for name, entry in results.items():
        assert entry["samples_per_sec"] > 0.0, name

    instrumented = results["process_batch[instrumented]"]
    # The acceptance bound for default-on telemetry is <= 5% on the
    # sequential hot loop; 1.15 here absorbs timer noise on a shared CI box
    # while still catching anything structurally expensive (an allocation or
    # Python loop per row instead of per batch).
    assert instrumented["overhead_vs_uninstrumented"] < 1.15

    # Trace-context propagation (deterministic span ids on every stage) must
    # ride along inside the same instrumentation bound — id allocation is one
    # counter increment and a string format per span.
    traced = results["process_batch[traced]"]
    assert traced["overhead_vs_uninstrumented"] < 1.15

    # One span is two perf_counter calls plus a histogram observe; anything
    # below ~100k/s would make per-stage tracing a measurable per-batch tax.
    assert results["trace_span[enter_exit]"]["samples_per_sec"] > 1e5

    # A /metrics scrape renders the full snapshot; Prometheus default
    # scrape cadence is 15 s, so anything near interactive is plenty — but a
    # render that takes longer than 100 ms would stall the scraper thread
    # noticeably next to the serve loop.
    assert results["metrics_exposition[render]"]["render_latency_s"] < 0.1

    # One --profile-mem sample is a procfs read plus two metric updates; it
    # runs once per batch, so it must stay far cheaper than a batch.
    assert results["mem_sample"]["samples_per_sec"] > 1e3

    # Report assembly + markdown render runs once per run (or per `serve
    # report` invocation); interactive means well under a second.
    assert results["report_render"]["render_latency_s"] < 1.0

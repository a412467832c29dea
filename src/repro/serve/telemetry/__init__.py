"""Serving telemetry: metrics registry, span tracing, logs and run reports.

The observability substrate for :mod:`repro.serve`, in four pieces:

* :mod:`~repro.serve.telemetry.metrics` — process-local
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments behind
  a :class:`MetricsRegistry` with a dict :meth:`~MetricsRegistry.snapshot`,
  a :class:`MetricsEvent` for the sink fabric, and
  :func:`deterministic_view` — the timing-free snapshot subset that
  sequential and thread runs of the same stream agree on exactly.
* :mod:`~repro.serve.telemetry.tracing` / :mod:`~repro.serve.telemetry.context`
  — :func:`trace_span` wraps each pipeline stage, recording wall time + rows
  into the registry and optionally to a :class:`SpanTracer` JSONL file
  (``serve --trace-file``); with a :class:`TraceContext` attached every span
  carries deterministic ``trace_id``/``span_id``/``parent_span_id`` ids
  (:class:`SpanBuffer` keeps spans in memory instead of a file).
* :mod:`~repro.serve.telemetry.traceview` — the ``repro trace`` analyzer:
  tree reconstruction, per-stage aggregation, critical paths and
  ``--budget`` latency gates over span-JSONL files.
* :mod:`~repro.serve.telemetry.statusd` / :mod:`~repro.serve.telemetry.exposition`
  — the opt-in live introspection endpoint (``serve --status-port``):
  :class:`StatusServer` answers ``/metrics`` (:func:`render_prometheus`),
  ``/health`` (:class:`HeartbeatWatchdog`) and ``/status``.
* :mod:`~repro.serve.telemetry.profiling` — :class:`MemoryProfiler` samples
  RSS/tracemalloc per stage (``serve --profile-mem``) into gauges, byte
  histograms and the ``memory`` section of ``run_summary.json``.
* :mod:`~repro.serve.telemetry.log` — the ``"repro.serve"`` stdlib logger
  (NullHandler by default) carrying structured degradation records next to
  the existing ``UserWarning`` channel; :func:`configure_logging` backs the
  ``serve --log-level`` flag.
* :mod:`~repro.serve.telemetry.report` — auditable run reports:
  :func:`build_report` / :func:`render_markdown` produce sectioned
  MET/NOT_MET verdicts with evidence (``report.json`` + ``report.md``),
  :func:`build_run_summary` records reproducibility hashes, and
  :func:`render_run_report` re-renders from a run directory
  (``repro serve report``).
"""

from .context import TraceContext
from .exposition import render_prometheus
from .log import configure_logging, get_logger, log_event, logger
from .metrics import (
    DISABLED,
    Counter,
    Gauge,
    Histogram,
    MetricsEvent,
    MetricsRegistry,
    deterministic_view,
    log_spaced_buckets,
)
from .profiling import MemoryProfiler, read_rss_bytes
from .report import (
    build_report,
    build_run_summary,
    config_sha256,
    load_run_dir,
    render_markdown,
    render_run_report,
    write_report_files,
)
from .statusd import HeartbeatWatchdog, StatusServer
from .tracing import SpanBuffer, SpanTracer, trace_span
from .traceview import (
    build_forest,
    critical_path,
    read_spans,
    stage_aggregate,
    stage_multiset,
    tree_shape,
)

__all__ = [
    "Counter",
    "DISABLED",
    "Gauge",
    "HeartbeatWatchdog",
    "Histogram",
    "MemoryProfiler",
    "MetricsEvent",
    "MetricsRegistry",
    "SpanBuffer",
    "SpanTracer",
    "StatusServer",
    "TraceContext",
    "build_forest",
    "build_report",
    "build_run_summary",
    "config_sha256",
    "configure_logging",
    "critical_path",
    "deterministic_view",
    "get_logger",
    "load_run_dir",
    "log_event",
    "log_spaced_buckets",
    "logger",
    "read_rss_bytes",
    "read_spans",
    "render_markdown",
    "render_prometheus",
    "render_run_report",
    "stage_aggregate",
    "stage_multiset",
    "trace_span",
    "tree_shape",
    "write_report_files",
]

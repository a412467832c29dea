"""Pipeline span tracing for the serving stack.

:func:`trace_span` wraps one pipeline stage (quarantine scan, micro-batched
scoring, threshold update, drift check, sink emit, refit, gate, shadow
double-score, registry publish) in a context manager that
records the stage's wall time into a ``stage.<name>.seconds`` histogram and
its row count into a ``stage.<name>.rows`` counter on a
:class:`~repro.serve.telemetry.metrics.MetricsRegistry` — and, when a
:class:`SpanTracer` is attached (``repro serve --trace-file``), appends one
JSONL record per span so a run leaves a replayable trace on disk.

With a :class:`~repro.serve.telemetry.context.TraceContext` attached, the
span additionally carries ``trace_id`` / ``span_id`` / ``parent_span_id``
(deterministic dotted ids — see :mod:`~repro.serve.telemetry.context`), and
``span.ctx`` exposes the child context for spans nested inside it.  Records
are appended at ``__exit__``, so a JSONL trace lists children *before* their
parents; readers must rebuild the tree from the ids, not the line order.

:class:`SpanBuffer` is the in-memory tracer: it has the same ``record`` API
but accumulates span dicts in a list, to inspect or flush to a real tracer
later.

The span object is a tiny ``__slots__`` class rather than a
``@contextmanager`` generator: it sits inside the per-batch hot loop, and a
generator frame costs several times more than the two ``perf_counter`` calls
that do the actual work.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import IO, Any

from .context import TraceContext
from .metrics import DISABLED, MetricsRegistry

__all__ = ["SpanBuffer", "SpanTracer", "trace_span"]


class SpanTracer:
    """Append-only JSONL span sink (one object per span, sorted keys).

    The file opens lazily on the first span and every ``record`` appends one
    line, so a crashed run still leaves every completed span on disk.  Span
    timestamps are reported as ``t_offset_s`` relative to the tracer's
    construction (monotonic clock), which keeps traces comparable across
    runs without leaking wall-clock time into the format.

    The tracer tracks the byte offset of the last fully-written line; an
    interrupted write (SIGINT landing mid-``write``) and :meth:`close` both
    truncate back to that offset, so a killed run never leaves a truncated
    trailing span line in the file.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.n_spans = 0
        self._origin = perf_counter()
        self._file: IO[str] | None = None
        self._good_offset = 0
        self._lock = threading.Lock()

    def record(self, span: dict[str, Any]) -> None:
        line = json.dumps(span, sort_keys=True)
        with self._lock:
            if self._file is None:
                self._file = open(self.path, "a", encoding="utf-8")
                self._good_offset = self._file.seek(0, 2)
            try:
                self._file.write(line + "\n")
                self._file.flush()
            except BaseException:
                self._truncate_to_good()
                raise
            self._good_offset = self._file.tell()
            self.n_spans += 1

    def _truncate_to_good(self) -> None:
        """Drop a partially-written trailing line (lock held, file open)."""
        try:
            self._file.flush()
        except OSError:
            pass
        try:
            if self._file.tell() > self._good_offset:
                self._file.truncate(self._good_offset)
        except OSError:
            pass

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._truncate_to_good()
                self._file.close()
                self._file = None

    def __enter__(self) -> "SpanTracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SpanBuffer:
    """In-memory tracer with :class:`SpanTracer`'s ``record`` API.

    ``t_offset_s`` values are relative to *this buffer's* construction;
    :meth:`flush_to` appends the buffered spans to another tracer.
    """

    __slots__ = ("spans", "n_spans", "_origin")

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.n_spans = 0
        self._origin = perf_counter()

    def record(self, span: dict[str, Any]) -> None:
        self.spans.append(span)
        self.n_spans += 1

    def flush_to(self, tracer: "SpanTracer | SpanBuffer | None") -> None:
        """Append every buffered span to ``tracer`` and clear the buffer."""
        if tracer is not None:
            for span in self.spans:
                tracer.record(span)
        self.spans = []

    def close(self) -> None:
        pass


class trace_span:
    """Context manager timing one pipeline stage into the metrics registry.

    ``with trace_span("score", metrics=registry, rows=len(X)): ...`` records
    the block's wall time into the ``stage.score.seconds`` histogram and adds
    ``rows`` to the ``stage.score.rows`` counter; with a ``tracer`` it also
    appends ``{"stage", "seconds", "rows", "batch_index", "t_offset_s",
    "error"}`` as one JSONL line.  With a ``context`` the record additionally
    carries ``trace_id``/``span_id``/``parent_span_id`` and ``span.ctx`` is
    the child :class:`TraceContext` for nested spans (``None`` otherwise, so
    callers can thread ``context=parent.ctx`` unconditionally).  Exceptions
    propagate (the span records them with ``"error": <type name>`` first), so
    instrumentation never changes control flow.
    """

    __slots__ = (
        "stage",
        "metrics",
        "tracer",
        "rows",
        "batch_index",
        "context",
        "span_id",
        "_child",
        "_t0",
    )

    def __init__(
        self,
        stage: str,
        *,
        metrics: MetricsRegistry | None = None,
        tracer: "SpanTracer | SpanBuffer | None" = None,
        rows: int = 0,
        batch_index: int | None = None,
        context: TraceContext | None = None,
    ) -> None:
        self.stage = stage
        self.metrics = DISABLED if metrics is None else metrics
        self.tracer = tracer
        self.rows = int(rows)
        self.batch_index = batch_index
        self.context = context
        self.span_id: str | None = None
        self._child: TraceContext | None = None
        self._t0 = 0.0

    @property
    def ctx(self) -> TraceContext | None:
        """The child context under this span (``None`` without a context)."""
        if self._child is None and self.context is not None:
            self._child = self.context.child(self.span_id)
        return self._child

    def __enter__(self) -> "trace_span":
        context = self.context
        if context is not None:
            self.span_id = context.allocate()
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        elapsed = perf_counter() - self._t0
        metrics = self.metrics
        metrics.histogram(f"stage.{self.stage}.seconds", unit="seconds").observe(
            elapsed
        )
        if self.rows:
            metrics.counter(f"stage.{self.stage}.rows", unit="rows").inc(self.rows)
        tracer = self.tracer
        if tracer is not None:
            span: dict[str, Any] = {
                "stage": self.stage,
                "seconds": elapsed,
                "rows": self.rows,
                "t_offset_s": self._t0 - tracer._origin,
            }
            if self.batch_index is not None:
                span["batch_index"] = self.batch_index
            context = self.context
            if context is not None:
                span["trace_id"] = context.trace_id
                span["span_id"] = self.span_id
                if context.span_id is not None:
                    span["parent_span_id"] = context.span_id
            if exc_type is not None:
                span["error"] = exc_type.__name__
            tracer.record(span)

"""Distributed trace propagation: deterministic span trees across modes.

The contracts under test (see :mod:`repro.serve.telemetry.context` and
:mod:`repro.serve.telemetry.traceview`):

* span ids come from per-context counters, never ``random`` or the wall
  clock — the same stream replays to the same ids;
* sequential and thread-sharded runs of one stream produce the same spans,
  ids and parents included (only the serving thread opens spans);
* :class:`SpanTracer` never leaves a truncated trailing line — interrupted
  writes and ``close()`` truncate back to the last complete record — and
  the reader skips a torn tail instead of dying on it.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.datasets.streaming import FlowStream
from repro.novelty import IsolationForest
from repro.serve.parallel import ShardedDetectionService
from repro.serve.service import DetectionService
from repro.serve.telemetry import (
    SpanBuffer,
    SpanTracer,
    TraceContext,
    read_spans,
    stage_multiset,
    trace_span,
    tree_shape,
)

pytestmark = pytest.mark.serve

@pytest.fixture(scope="module")
def fitted(tiny_dataset):
    normal = tiny_dataset.normal_data()
    detector = IsolationForest(n_estimators=10, random_state=0).fit(normal)
    return tiny_dataset, detector


def _stream(dataset):
    return FlowStream(dataset, batch_size=64, drift_strength=2.0, random_state=0)


class TestTraceContext:
    def test_root_allocates_dense_counter_ids(self):
        ctx = TraceContext.root(7)
        assert ctx.trace_id == "t0007"
        assert ctx.span_id is None
        assert [ctx.allocate() for _ in range(3)] == ["1", "2", "3"]

    def test_child_descends_under_an_allocated_span(self):
        root = TraceContext.root(0)
        span_id = root.allocate()
        child = root.child(span_id)
        assert child.trace_id == root.trace_id
        assert child.span_id == span_id
        assert [child.allocate() for _ in range(2)] == ["1.1", "1.2"]

    def test_pickle_roundtrip_preserves_the_counter(self):
        ctx = TraceContext.root(3)
        ctx.allocate()
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.trace_id == "t0003"
        assert clone.allocate() == ctx.allocate() == "2"


class TestTraceSpanIds:
    def test_nested_spans_carry_the_id_triple(self):
        buffer = SpanBuffer()
        ctx = TraceContext.root(3)
        with trace_span("batch", tracer=buffer, context=ctx, batch_index=0) as outer:
            with trace_span("score", tracer=buffer, context=outer.ctx, rows=5):
                pass
        # Records land at __exit__: the child is written before its parent.
        score, batch = buffer.spans
        assert score["stage"] == "score"
        assert score["trace_id"] == "t0003"
        assert score["span_id"] == "1.1"
        assert score["parent_span_id"] == "1"
        assert batch["span_id"] == "1"
        assert "parent_span_id" not in batch  # root-context span
        assert batch["batch_index"] == 0

    def test_without_a_context_spans_have_no_ids(self):
        buffer = SpanBuffer()
        with trace_span("score", tracer=buffer) as span:
            assert span.ctx is None
        assert "span_id" not in buffer.spans[0]
        assert "trace_id" not in buffer.spans[0]

    def test_failing_span_records_ids_and_error(self):
        buffer = SpanBuffer()
        ctx = TraceContext.root(0)
        with pytest.raises(RuntimeError):
            with trace_span("score", tracer=buffer, context=ctx):
                raise RuntimeError("boom")
        assert buffer.spans[0]["span_id"] == "1"
        assert buffer.spans[0]["error"] == "RuntimeError"

    def test_buffer_flushes_to_tracer_in_order_and_clears(self, tmp_path):
        buffer = SpanBuffer()
        for i in range(3):
            buffer.record({"stage": f"s{i}", "seconds": 0.0})
        path = tmp_path / "trace.jsonl"
        with SpanTracer(str(path)) as tracer:
            buffer.flush_to(tracer)
            assert tracer.n_spans == 3
        assert buffer.spans == []
        assert [s["stage"] for s in read_spans(str(path))] == ["s0", "s1", "s2"]


class TestTracerTruncationSafety:
    def test_close_truncates_a_partial_trailing_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = SpanTracer(str(path))
        tracer.record({"stage": "a", "seconds": 0.0})
        # Simulate a write interrupted mid-line (SIGINT landing in write()).
        tracer._file.write('{"stage": "torn')
        tracer.close()
        text = path.read_text()
        assert text.endswith("\n")
        assert [json.loads(line)["stage"] for line in text.splitlines()] == ["a"]

    def test_reader_skips_a_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"stage": "a", "seconds": 0.0}\n{"stage": "to')
        spans = read_spans(str(path))
        assert [s["stage"] for s in spans] == ["a"]

    def test_interrupted_run_leaves_every_completed_span_parseable(
        self, fitted, tmp_path
    ):
        dataset, detector = fitted
        normal = dataset.normal_data()
        path = tmp_path / "trace.jsonl"
        tracer = SpanTracer(str(path))
        service = DetectionService(
            detector, threshold="auto", tracer=tracer,
            trace_context=TraceContext.root(0),
        )

        def interrupted_stream():
            yield normal[:32]
            yield normal[32:64]
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            list(service.process(interrupted_stream()))
        tracer.close()
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans  # the two completed batches left their spans
        assert stage_multiset(spans)["batch"] == 2


class TestCrossModeTraceTrees:
    """One stream, sequential and thread-sharded, one span tree."""

    @pytest.fixture(scope="class")
    def mode_spans(self, fitted, tmp_path_factory):
        dataset, detector = fitted
        root = tmp_path_factory.mktemp("traces")
        spans = {}
        with SpanTracer(str(root / "sequential.jsonl")) as tracer:
            service = DetectionService(
                detector, threshold="auto", tracer=tracer,
                trace_context=TraceContext.root(0),
            )
            list(service.process(_stream(dataset)))
        spans["sequential"] = read_spans(str(root / "sequential.jsonl"))
        for mode in ("thread",):
            with SpanTracer(str(root / f"{mode}.jsonl")) as tracer:
                sharded = ShardedDetectionService(
                    detector, n_workers=3, mode=mode, threshold="auto",
                    tracer=tracer, trace_context=TraceContext.root(0),
                )
                list(sharded.process(_stream(dataset)))
            spans[mode] = read_spans(str(root / f"{mode}.jsonl"))
        return spans

    def test_every_span_carries_the_id_triple(self, mode_spans):
        for mode, spans in mode_spans.items():
            assert spans, mode
            for span in spans:
                assert span["trace_id"] == "t0000", mode
                assert span["span_id"], mode

    def test_span_ids_are_unique_within_each_run(self, mode_spans):
        for mode, spans in mode_spans.items():
            ids = [(s["trace_id"], s["span_id"]) for s in spans]
            assert len(ids) == len(set(ids)), mode

    def test_sharded_tree_matches_sequential(self, mode_spans):
        sequential = tree_shape(mode_spans["sequential"])
        for mode in ("thread",):
            assert sequential == tree_shape(mode_spans[mode]), mode
            # ids and parents too, not only the shape
            assert [
                (s["stage"], s["span_id"], s.get("parent_span_id"))
                for s in mode_spans["sequential"]
            ] == [
                (s["stage"], s["span_id"], s.get("parent_span_id"))
                for s in mode_spans[mode]
            ], mode

    def test_stage_multisets_agree_across_modes(self, mode_spans):
        sequential = stage_multiset(mode_spans["sequential"])
        for mode in ("thread",):
            assert sequential == stage_multiset(mode_spans[mode]), mode
        # Every batch opened exactly one wrapper span with children under it.
        assert sequential["batch"] > 0
        assert sequential["score"] == sequential["batch"]


class TestCliTracerCleanup:
    def test_tracer_closed_when_stream_raises(self, tmp_path, monkeypatch):
        """An exception out of the serve loop must still close the tracer.

        A torn run used to leak the span-file handle (and any tracemalloc
        hooks): the happy path closed the tracer *after* printing the span
        count, so an application error escaping ``_serve_stream`` skipped
        the close entirely.  The CLI now closes tracer and profiler on the
        exception path before re-raising.
        """
        import repro.serve.cli as cli_mod

        closed = []
        original_close = SpanTracer.close

        def recording_close(self):
            closed.append(self)
            return original_close(self)

        def exploding_stream(service, stream):
            raise RuntimeError("application error escaping the serve loop")

        monkeypatch.setattr(SpanTracer, "close", recording_close)
        monkeypatch.setattr(cli_mod, "_serve_stream", exploding_stream)

        trace_file = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError, match="escaping the serve loop"):
            cli_mod.main([
                "serve",
                "--dataset", "wustl_iiot",
                "--scale", "0.0015",
                "--detector", "hbos",
                "--trace-file", str(trace_file),
            ])
        assert closed, "tracer.close() never ran on the exception path"
        # close() truncates to the last complete record; a zero-span run may
        # never have materialised the file, but if it did it must be readable.
        if trace_file.exists():
            assert read_spans(str(trace_file)) == []

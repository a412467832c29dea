"""ShardedDetectionService: equal to the sequential service, stage for stage.

The contract under test (see :mod:`repro.serve.parallel`): worker threads
only score batches ahead, and the parent runs every stateful stage in stream
order, so every :class:`BatchResult` field but the measured latency, every
sink event, every ``pipeline.*`` counter and the span tree equal a
sequential run — ``"rolling"`` thresholds, drift firings, lifecycle swaps
and shadow trials included, on both traversal backends.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.datasets.streaming import FlowStream, inject_drift
from repro.ml import native
from repro.novelty import HBOS, IsolationForest, MahalanobisDetector
from repro.serve import FullRefit, LifecycleManager, ShadowEvaluator, WindowBuffer
from repro.serve.drift import DriftMonitor
from repro.serve.fusion import FusionDetector
from repro.serve.parallel import ShardedDetectionService
from repro.serve.service import Alert, DetectionService, DriftEvent
from repro.serve.sinks import ListSink
from repro.serve.telemetry import SpanBuffer, TraceContext, deterministic_view


@pytest.fixture(scope="module")
def stream_setup():
    dataset = load_dataset("wustl_iiot", scale=0.0015, seed=0)
    normal = dataset.normal_data()
    detector = IsolationForest(n_estimators=20, random_state=0).fit(normal)
    return dataset, normal, detector


@pytest.fixture(params=["native", "numpy"])
def backend(request, monkeypatch):
    if request.param == "numpy":
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    else:
        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        if not native.available():
            pytest.skip("native kernels unavailable in this environment")
    return request.param


def _alert_tuples(events):
    return [
        (a.batch_index, a.sample_index, a.score, a.threshold)
        for a in events
        if isinstance(a, Alert)
    ]


def _monitor_factory(detector, normal):
    return lambda: DriftMonitor().set_reference(detector.score_samples(normal), normal)


class _OverflowingForest(IsolationForest):
    """An isolation forest plus a squared-norm term, as distance-based scores
    carry: rows of finite but extreme features (1e200) score ``nan``."""

    def score_samples(self, X):
        with np.errstate(over="ignore", invalid="ignore"):
            return super().score_samples(X) + 0.0 * np.square(X).sum(axis=1)


def _overflowing_forest():
    return _OverflowingForest(n_estimators=25, random_state=0, threshold_quantile=0.9)


@pytest.fixture(scope="module")
def pipeline_stream():
    """A drifting stream of ragged batches with an empty batch, rows with
    non-finite features and rows whose score overflows."""
    rng = np.random.default_rng(7)
    n, n_features = 4096, 8
    train = rng.normal(size=(1500, n_features))
    base = rng.normal(size=(n, n_features))
    X = base.copy()
    X[: n // 2] = inject_drift(
        base[: n // 2], strength=6.0, fraction_of_features=0.5, random_state=3
    )
    X[n // 2 :] += X[n // 2 - 1] - base[n // 2 - 1]
    X[rng.random(n) < 0.03] += 9.0
    batches, start = [], 0
    for size in [150, 90, 131, 64, 1] * 40:
        if start >= n:
            break
        batches.append(X[start : start + size].copy())
        start += size
    batches.insert(0, np.empty((0, n_features)))
    batches.insert(9, np.empty((0, n_features)))
    batches[6][[2, 7]] = np.nan
    batches[6][11, 3] = np.inf
    batches[13][[0, 4, 5]] = 1e200
    batches[-2][[1]] = 1e200
    batches[-5][:] = np.nan
    detector = _overflowing_forest().fit(train)
    return train, batches, detector


def _run_pipeline(service_class, pipeline_stream, shadow_rounds, **kwargs):
    train, batches, detector = pipeline_stream
    monitor = DriftMonitor(window=512, min_samples=256, cooldown=4)
    monitor.set_reference(detector.score_samples(train), train)
    manager = LifecycleManager(
        FullRefit(_overflowing_forest),
        buffer=WindowBuffer(1024),
        min_refit_rows=256,
        shadow=ShadowEvaluator(rounds=shadow_rounds, min_samples=64)
        if shadow_rounds
        else None,
    )
    sink, tracer = ListSink(), SpanBuffer()
    service = service_class(
        detector,
        threshold="rolling",
        rolling_window=1024,
        rolling_quantile=0.9,
        min_rolling=64,
        drift_monitor=monitor,
        lifecycle=manager,
        sinks=[sink],
        tracer=tracer,
        trace_context=TraceContext.root(0),
        **kwargs,
    )
    results = list(service.process(batches))
    lifecycle = [
        {k: v for k, v in event.to_dict().items() if k != "refit_latency_s"}
        for event in manager.events
    ]
    spans = [
        {k: v for k, v in span.items() if k not in ("seconds", "t_offset_s")}
        for span in tracer.spans
    ]
    return {
        "results": results,
        "events": [event.to_dict() for event in sink.events],
        "lifecycle": lifecycle,
        "metrics": deterministic_view(service.metrics_snapshot()),
        "spans": spans,
        "report": service.report(),
    }


class TestWholePipelineEquivalence:
    @pytest.fixture(scope="class", params=[0, 3], ids=["refit", "shadow"])
    def sequential(self, request, pipeline_stream):
        return request.param, _run_pipeline(
            DetectionService, pipeline_stream, request.param
        )

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_sharded_equals_sequential(
        self, sequential, pipeline_stream, backend, n_workers, monkeypatch
    ):
        shadow_rounds, seq = sequential
        rescored = []
        inline = DetectionService._score_served

        def spy(service, X):
            rescored.append(service.n_batches_)
            return inline(service, X)

        monkeypatch.setattr(DetectionService, "_score_served", spy)
        shard = _run_pipeline(
            ShardedDetectionService, pipeline_stream, shadow_rounds, n_workers=n_workers
        )

        # The scenario exercised every path it is meant to.
        swaps = [e for e in seq["lifecycle"] if e["swapped"]]
        assert swaps and seq["results"][-1].model_epoch >= 1
        assert any(r.drift is not None and r.drift.drifted for r in seq["results"])
        reasons = {r.quarantine_reason for r in seq["results"]}
        assert {"non-finite feature values", "score_nonfinite"} <= reasons
        if shadow_rounds:
            assert {"shadow_start", "shadow_pass"} <= {e["action"] for e in seq["lifecycle"]}
        # A swap landed with later batches already scored ahead: only
        # those were rescored inline, by the new model.
        assert rescored
        assert all(seq["results"][b].model_epoch >= 1 for b in rescored)

        assert len(shard["results"]) == len(seq["results"])
        for ours, theirs in zip(shard["results"], seq["results"]):
            np.testing.assert_array_equal(ours.scores, theirs.scores)
            np.testing.assert_array_equal(ours.predictions, theirs.predictions)
            np.testing.assert_array_equal(ours.threshold, theirs.threshold)
            assert (ours.index, ours.alerts, ours.drift, ours.model_epoch) == (
                theirs.index, theirs.alerts, theirs.drift, theirs.model_epoch
            )
            assert (ours.quarantined, ours.quarantine_reason) == (
                theirs.quarantined, theirs.quarantine_reason
            )
        assert shard["events"] == seq["events"]
        assert shard["lifecycle"] == seq["lifecycle"]
        assert shard["metrics"] == seq["metrics"]
        assert shard["spans"] == seq["spans"]
        for field in ("n_batches", "n_samples", "n_alerts", "n_drift_events",
                      "drift_batches", "n_quarantined"):
            assert getattr(shard["report"], field) == getattr(seq["report"], field)


class TestFusionGauges:
    """The ``fusion.*`` gauges describe the batch just served, not whichever
    batch a worker scored last on the shared detector."""

    @pytest.fixture(scope="class")
    def fusion_stream(self, stream_setup):
        dataset, normal, _ = stream_setup
        fusion = FusionDetector(
            [
                IsolationForest(n_estimators=10, random_state=0),
                HBOS(n_bins=10),
                MahalanobisDetector(),
            ],
            combine="pcr",
        ).fit(normal)
        batches = [X for X, _ in FlowStream(dataset, batch_size=79, random_state=0)]
        return fusion, batches

    @staticmethod
    def _gauges_after_each_batch(service, batches):
        gauges = []
        for _ in service.process(batches):
            snapshot = service.metrics_snapshot()["gauges"]
            gauges.append({k: v for k, v in snapshot.items() if k.startswith("fusion.")})
        return gauges

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_fusion_gauges_equal_sequential_after_every_batch(
        self, fusion_stream, n_workers
    ):
        fusion, batches = fusion_stream
        # Micro-batches of 32 rows: the gauges hold the batch's last chunk.
        seq = self._gauges_after_each_batch(
            DetectionService(fusion, threshold="auto", micro_batch_size=32), batches
        )
        shard = self._gauges_after_each_batch(
            ShardedDetectionService(
                fusion, n_workers=n_workers, threshold="auto", micro_batch_size=32
            ),
            batches,
        )
        assert len(seq) == len(batches) == 24
        assert all(
            set(g) == {"fusion.conflict_mass"}
            | {f"fusion.member_{kind}.{i}" for kind in ("weight", "failed") for i in range(3)}
            for g in seq
        )
        assert len({g["fusion.conflict_mass"]["value"] for g in seq}) > 1
        assert shard == seq


class TestShardedEquivalence:
    @pytest.mark.parametrize("mode", ["thread"])
    def test_matches_sequential_on_auto_threshold(self, stream_setup, backend, mode):
        dataset, _, detector = stream_setup

        def stream():
            return FlowStream(
                dataset, batch_size=97, drift_strength=1.5, random_state=0
            )

        seq_sink = ListSink()
        sequential = DetectionService(detector, threshold="auto", sinks=[seq_sink])
        seq_results = list(sequential.process(stream()))
        seq_report = sequential.report()

        shard_sink = ListSink()
        sharded = ShardedDetectionService(
            detector, n_workers=3, mode=mode, threshold="auto", sinks=[shard_sink]
        )
        shard_results = list(sharded.process(stream()))
        shard_report = sharded.report()

        # Global order, bit-identical scores, identical alerts.
        assert [r.index for r in shard_results] == [r.index for r in seq_results]
        for seq_r, shard_r in zip(seq_results, shard_results):
            np.testing.assert_array_equal(seq_r.scores, shard_r.scores)
            np.testing.assert_array_equal(seq_r.predictions, shard_r.predictions)
            assert seq_r.threshold == shard_r.threshold
        assert _alert_tuples(shard_sink.events) == _alert_tuples(seq_sink.events)

        assert shard_report.n_batches == seq_report.n_batches
        assert shard_report.n_samples == seq_report.n_samples
        assert shard_report.n_alerts == seq_report.n_alerts

    def test_scores_identical_with_rolling_threshold(self, stream_setup, backend):
        dataset, _, detector = stream_setup
        stream = FlowStream(dataset, batch_size=130, random_state=1)
        sharded = ShardedDetectionService(
            detector, n_workers=2, mode="thread", threshold="rolling"
        )
        merged = np.concatenate([r.scores for r in sharded.process(stream)])
        np.testing.assert_array_equal(merged, detector.score_samples(stream.X))

    def test_single_worker_degenerates_to_sequential(self, stream_setup):
        dataset, normal, detector = stream_setup
        factory = _monitor_factory(detector, normal)

        def stream():
            return FlowStream(
                dataset, batch_size=200, drift_strength=3.0, random_state=0
            )

        for threshold in ("auto", "rolling"):
            seq_sink = ListSink()
            sequential = DetectionService(
                detector,
                threshold=threshold,
                drift_monitor=factory(),
                sinks=[seq_sink],
            )
            seq_results = list(sequential.process(stream()))
            shard_sink = ListSink()
            sharded = ShardedDetectionService(
                detector,
                n_workers=1,
                threshold=threshold,
                drift_monitor_factory=factory,
                sinks=[shard_sink],
            )
            shard_results = list(sharded.process(stream()))

            assert len(shard_results) == len(seq_results), threshold
            for seq_r, shard_r in zip(seq_results, shard_results):
                np.testing.assert_array_equal(seq_r.scores, shard_r.scores)
                np.testing.assert_array_equal(seq_r.predictions, shard_r.predictions)
                assert seq_r.threshold == shard_r.threshold, threshold
            assert _alert_tuples(shard_sink.events) == _alert_tuples(
                seq_sink.events
            ), threshold
            assert sequential.drift_batches_, threshold  # drift was exercised
            assert sharded.drift_batches_ == sequential.drift_batches_, threshold


class TestRaggedAndEmptyBatches:
    def test_empty_and_ragged_batches_merge_in_order(self, stream_setup):
        _, normal, detector = stream_setup
        width = normal.shape[1]
        batches = [
            normal[:0],  # empty stream head
            normal[:50],
            normal[50:53],  # ragged
            np.empty((0, width)),  # empty mid-stream
            normal[53:120],
        ]
        sharded = ShardedDetectionService(detector, n_workers=2, threshold="auto")
        results = list(sharded.process(batches))
        report = sharded.report()
        assert [r.index for r in results] == [0, 1, 2, 3, 4]
        assert [r.n_samples for r in results] == [0, 50, 3, 0, 67]
        assert report.n_batches == 5
        assert report.n_samples == 120
        merged = np.concatenate([r.scores for r in results])
        np.testing.assert_array_equal(merged, detector.score_samples(normal[:120]))

    def test_process_batch_then_process_keep_global_order(self, stream_setup):
        # A lone process_batch is scored inline by the inherited method;
        # process then continues the same global batch and sample indices.
        _, normal, detector = stream_setup
        sharded = ShardedDetectionService(detector, n_workers=2, threshold=-np.inf)
        first = sharded.process_batch(normal[:30])
        rest = list(sharded.process([normal[30:50], normal[50:90]]))
        assert [first.index] + [r.index for r in rest] == [0, 1, 2]
        assert [a.sample_index for a in rest[-1].alerts] == list(range(50, 90))
        merged = np.concatenate([first.scores] + [r.scores for r in rest])
        np.testing.assert_array_equal(merged, detector.score_samples(normal[:90]))

    def test_alert_indices_skip_empty_batches_correctly(self, stream_setup):
        _, normal, detector = stream_setup
        width = normal.shape[1]
        sink = ListSink()
        sharded = ShardedDetectionService(
            detector, n_workers=2, threshold=-np.inf, sinks=[sink]
        )
        sharded.run([normal[:10], np.empty((0, width)), normal[10:25]])
        alerts = [e for e in sink.events if isinstance(e, Alert)]
        assert [a.sample_index for a in alerts] == list(range(25))
        assert alerts[-1].batch_index == 2


class TestDriftMerging:
    @pytest.mark.parametrize("mode", ["thread"])
    def test_drift_events_carry_global_batch_order(self, stream_setup, mode):
        dataset, normal, detector = stream_setup
        sink = ListSink()
        sharded = ShardedDetectionService(
            detector,
            n_workers=2,
            mode=mode,
            threshold="auto",
            drift_monitor_factory=_monitor_factory(detector, normal),
            sinks=[sink],
        )
        stream = FlowStream(dataset, batch_size=150, drift_strength=3.0, random_state=0)
        report = sharded.run(stream)
        events = [e for e in sink.events if isinstance(e, DriftEvent)]
        assert report.n_drift_events == len(events)
        assert report.n_drift_events > 0
        indices = [e.batch_index for e in events]
        assert indices == sorted(indices)
        assert report.drift_batches == indices


class TestValidation:
    def test_bad_configuration_rejected(self, stream_setup):
        _, _, detector = stream_setup
        with pytest.raises(ValueError):
            ShardedDetectionService(detector, n_workers=0)
        with pytest.raises(ValueError):
            ShardedDetectionService(detector, mode="fiber")
        with pytest.raises(ValueError, match="process mode .* was removed"):
            ShardedDetectionService(detector, mode="process")
        with pytest.raises(ValueError, match="process mode .* was removed"):
            ShardedDetectionService(detector, mode="auto")
        with pytest.raises(ValueError):
            ShardedDetectionService(detector, rolling_quantile=2.0)
        with pytest.raises(TypeError, match="not callable"):
            ShardedDetectionService(detector, drift_monitor_factory=DriftMonitor())
        with pytest.raises(ValueError, match="not both"):
            ShardedDetectionService(
                detector, drift_monitor=DriftMonitor(), drift_monitor_factory=DriftMonitor
            )

    def test_feature_width_validated_at_dispatch(self, stream_setup):
        _, normal, detector = stream_setup
        sharded = ShardedDetectionService(detector, n_workers=2, threshold="auto")
        bad_stream = [normal[:40], np.zeros((4, normal.shape[1] + 1))]
        with pytest.raises(ValueError, match="stream started with"):
            list(sharded.process(bad_stream))

    def test_wrong_width_batch_is_quarantined_in_stream_order(self, stream_setup):
        _, normal, detector = stream_setup
        batches = [normal[:40], np.zeros((4, normal.shape[1] + 1)), normal[40:60]]
        runs = [
            [
                (r.index, r.n_samples, r.quarantined)
                for r in service.process(batches)
            ]
            for service in (
                DetectionService(detector, quarantine_wrong_width=True),
                ShardedDetectionService(
                    detector, n_workers=2, quarantine_wrong_width=True
                ),
            )
        ]
        assert runs[0] == runs[1] == [(0, 40, ()), (1, 0, (0, 1, 2, 3)), (2, 20, ())]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="speedup assertion needs at least 2 cores"
)
def test_sharded_throughput_beats_sequential(stream_setup):
    """On multi-core hardware the fan-out must deliver >= 1.5x throughput."""
    dataset, normal, _ = stream_setup
    rng = np.random.default_rng(0)
    train = rng.normal(size=(1500, 16))
    X = rng.normal(size=(60_000, 16))
    heavy = IsolationForest(n_estimators=100, max_samples=256, random_state=0).fit(train)
    batches = [X[start : start + 1024] for start in range(0, X.shape[0], 1024)]

    def best_rate(run):
        best = 0.0
        for _ in range(3):
            report = run()
            best = max(best, report.throughput_samples_per_sec)
        return best

    seq = best_rate(lambda: DetectionService(heavy, threshold="auto").run(batches))
    par = best_rate(
        lambda: ShardedDetectionService(
            heavy,
            n_workers=min(4, os.cpu_count() or 2),
            mode="thread",
            threshold="auto",
        ).run(batches)
    )
    assert par >= 1.5 * seq, f"sharded {par:,.0f}/s vs sequential {seq:,.0f}/s"

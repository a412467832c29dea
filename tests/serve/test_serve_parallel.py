"""ShardedDetectionService: sharded-vs-sequential equivalence and merging.

The contract under test (see :mod:`repro.serve.parallel`): identical scores
bit for bit, alerts re-serialized into global stream order (identical to the
sequential service for fixed/"auto" thresholds), merged counters, drift
events in global batch order — on both traversal backends.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.datasets.streaming import FlowStream
from repro.ml import native
from repro.novelty import IsolationForest
from repro.serve.drift import DriftMonitor
from repro.serve.parallel import ShardedDetectionService
from repro.serve.service import Alert, DetectionService, DriftEvent
from repro.serve.sinks import ListSink


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

        # Merged counters match the sequential aggregate.
        assert shard_report.n_batches == seq_report.n_batches
        assert shard_report.n_samples == seq_report.n_samples
        assert shard_report.n_alerts == seq_report.n_alerts

    def test_scores_identical_with_rolling_threshold(self, stream_setup, backend):
        # Rolling thresholds are per shard (documented divergence), but the
        # scores themselves must stay bit-identical to sequential scoring.
        dataset, _, detector = stream_setup
        stream = FlowStream(dataset, batch_size=130, random_state=1)
        sharded = ShardedDetectionService(
            detector, n_workers=2, mode="thread", threshold="rolling"
        )
        merged = np.concatenate([r.scores for r in sharded.process(stream)])
        np.testing.assert_array_equal(merged, detector.score_samples(stream.X))

    def test_single_worker_degenerates_to_sequential(self, stream_setup):
        # One shard sees the whole stream in order, so its rolling window and
        # drift monitor match the sequential service's batch for batch.
        dataset, normal, detector = stream_setup
        import functools

        from repro.serve.cli import _make_drift_monitor

        factory = functools.partial(
            _make_drift_monitor, detector.score_samples(normal), normal
        )

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

    def test_process_batch_reaches_the_shards_in_global_order(self, stream_setup):
        _, normal, detector = stream_setup
        sharded = ShardedDetectionService(detector, n_workers=2, threshold="auto")
        first = sharded.process_batch(normal[:30])
        rest = list(sharded.process([normal[30:50], normal[50:90]]))
        assert [first.index] + [r.index for r in rest] == [0, 1, 2]
        assert [s.timer.n_calls for s in sharded._shard_services] == [2, 1]
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
        import functools

        from repro.serve.cli import _make_drift_monitor

        factory = functools.partial(
            _make_drift_monitor, detector.score_samples(normal), normal
        )
        sink = ListSink()
        sharded = ShardedDetectionService(
            detector,
            n_workers=2,
            mode=mode,
            threshold="auto",
            drift_monitor_factory=factory,
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
        with pytest.raises(TypeError, match="factory"):
            ShardedDetectionService(detector, drift_monitor_factory=DriftMonitor())

    def test_feature_width_validated_at_dispatch(self, stream_setup):
        _, normal, detector = stream_setup
        sharded = ShardedDetectionService(detector, n_workers=2, threshold="auto")
        bad_stream = [normal[:40], np.zeros((4, normal.shape[1] + 1))]
        with pytest.raises(ValueError, match="stream started with"):
            list(sharded.process(bad_stream))


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

"""Coordinated hot-swap + end-to-end lifecycle acceptance.

The contract under test (see :mod:`repro.serve.parallel`):

* per-shard drift monitors only *vote*; the parent refits once on quorum and
  swaps every worker from the next round on, so within any round all shards
  score with the same epoch-tagged model;
* on a stream with injected covariate drift (``datasets.streaming``), the
  service detects drift, refits from the clean window, republishes to the
  registry, and post-swap alert precision/recall recovers to within
  tolerance of a model fit directly on post-drift data — sequential and
  sharded;
* the opt-in greedy shard assignment stays deterministic and keeps the
  global stream order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.streaming import inject_drift
from repro.metrics.classification import precision_score, recall_score
from repro.novelty import IsolationForest
from repro.serve import (
    Alert,
    DetectionService,
    DriftMonitor,
    FullRefit,
    LifecycleManager,
    ListSink,
    ModelRegistry,
    ShadowEvaluator,
    ShardedDetectionService,
    WindowBuffer,
)
from repro.serve.drift import DriftReport

BATCH = 128
QUANTILE = 0.90
TOLERANCE = 0.15


def _factory():
    return IsolationForest(
        n_estimators=25, random_state=0, threshold_quantile=QUANTILE
    )


def _monitor_factory():
    return DriftMonitor(window=512, min_samples=256, cooldown=4)


@pytest.fixture(scope="module")
def drifted_stream():
    """Covariate drift that ramps over the first half and then holds.

    The plateau matters: after the lifecycle re-fits on post-drift traffic
    the monitors must stop firing, leaving a long stable tail to measure
    post-swap alert quality on.  Labels mark injected anomalies (+9 on all
    features relative to their drifted position) that stay separable before
    and after the shift.
    """
    rng = np.random.default_rng(7)
    n, n_features = 6144, 8
    half = n // 2
    train = rng.normal(size=(2000, n_features))
    base = rng.normal(size=(n, n_features))
    X = base.copy()
    ramp = inject_drift(
        base[:half], strength=6.0, fraction_of_features=0.5, random_state=3
    )
    X[:half] = ramp
    X[half:] = base[half:] + (ramp[-1] - base[half - 1])
    y = (rng.random(n) < 0.03).astype(np.int64)
    X[y == 1] += 9.0
    detector = _factory().fit(train)
    return train, X, y, detector


def _lifecycle(detector, tmp_path):
    registry = ModelRegistry(tmp_path)
    registry.publish(detector, "ids")
    manager = LifecycleManager(
        FullRefit(_factory),
        buffer=WindowBuffer(1024),
        registry=registry,
        model_name="ids",
        min_refit_rows=256,
    )
    return registry, manager


def _batches(X):
    return [X[start : start + BATCH] for start in range(0, X.shape[0], BATCH)]


def _tail_quality(results, y, final_epoch):
    """Precision/recall of the alerts scored entirely by the final model."""
    results = sorted(results, key=lambda r: r.index)
    start = next(
        i for i, r in enumerate(results) if r.model_epoch == final_epoch
    )
    lo = start * BATCH
    predictions = np.concatenate([r.predictions for r in results])[lo:]
    return lo, precision_score(y[lo:], predictions), recall_score(y[lo:], predictions)


def _reference_quality(X, y, lo):
    """A model fit directly on post-drift clean data, judged on the same tail."""
    tail_X, tail_y = X[lo:], y[lo:]
    reference = _factory().fit(tail_X[tail_y == 0])
    predictions = (
        reference.score_samples(tail_X) > reference.threshold_
    ).astype(np.int64)
    return precision_score(tail_y, predictions), recall_score(tail_y, predictions)


def _assert_recovered(X, y, results, final_epoch, stale_detector):
    lo, precision, recall = _tail_quality(results, y, final_epoch)
    assert lo < X.shape[0] - 8 * BATCH, "swap settled too late to judge the tail"
    ref_precision, ref_recall = _reference_quality(X, y, lo)
    assert recall >= ref_recall - TOLERANCE, (recall, ref_recall)
    assert precision >= ref_precision - TOLERANCE, (precision, ref_precision)
    # and the recovery is attributable to the refit: the stale pre-drift
    # model flags nearly every drifted-normal row on the same tail
    stale = (
        stale_detector.score_samples(X[lo:]) > stale_detector.threshold_
    ).astype(np.int64)
    assert precision > precision_score(y[lo:], stale) + 0.1


class TestEndToEndRecovery:
    def test_sequential_drift_refit_recovers(self, drifted_stream, tmp_path):
        train, X, y, detector = drifted_stream
        registry, manager = _lifecycle(detector, tmp_path)
        monitor = _monitor_factory()
        monitor.set_reference(detector.score_samples(train), train)
        service = DetectionService(
            detector,
            threshold="rolling",
            rolling_window=1024,
            rolling_quantile=QUANTILE,
            min_rolling=64,
            drift_monitor=monitor,
            lifecycle=manager,
        )
        results = [service.process_batch(batch) for batch in _batches(X)]

        assert service.n_drift_events_ >= 1
        refits = [e for e in manager.events if e.action == "refit" and e.swapped]
        assert refits, [e.action for e in manager.events]
        assert service.epoch_ >= 1
        # republished: every accepted refit is a new registry version
        assert registry.versions("ids")[-1] == refits[-1].published_version
        _assert_recovered(X, y, results, service.epoch_, detector)

    @pytest.mark.parametrize("mode", ["thread"])
    def test_sharded_coordinated_swap_recovers(self, drifted_stream, tmp_path, mode):
        train, X, y, detector = drifted_stream
        registry, manager = _lifecycle(detector, tmp_path / mode)
        service = ShardedDetectionService(
            detector,
            n_workers=2,
            mode=mode,
            threshold="rolling",
            rolling_window=1024,
            rolling_quantile=QUANTILE,
            min_rolling=64,
            drift_monitor_factory=_monitor_factory,
            lifecycle=manager,
            quorum=0.5,
        )
        results = list(service.process(_batches(X)))

        assert service.n_swaps_ >= 1 and service.epoch_ >= 1
        assert registry.latest_version("ids") >= 2
        # every worker scored every round with the same epoch-tagged model
        round_size = service.n_workers * service.batches_per_round
        epochs_per_round: dict[int, set[int]] = {}
        for result in results:
            epochs_per_round.setdefault(result.index // round_size, set()).add(
                result.model_epoch
            )
        assert all(len(epochs) == 1 for epochs in epochs_per_round.values())
        # epochs only move at round boundaries, monotonically
        ordered = [
            next(iter(epochs_per_round[r])) for r in sorted(epochs_per_round)
        ]
        assert ordered == sorted(ordered)
        # a swap lands mid-tail, and the rest of that round was scored by the
        # superseded model: its firings cast no vote, so the epoch rises by
        # at most one per round
        assert all(b - a <= 1 for a, b in zip([0, *ordered], ordered))
        _assert_recovered(X, y, results, service.epoch_, detector)


class TestCoordination:
    def test_full_quorum_accumulates_votes_across_rounds(
        self, drifted_stream, tmp_path
    ):
        # quorum=1.0 with 2 workers: a single shard firing must not swap;
        # votes accumulate until *both* shards have flagged drift.
        train, X, y, detector = drifted_stream
        registry, manager = _lifecycle(detector, tmp_path)
        service = ShardedDetectionService(
            detector,
            n_workers=2,
            mode="thread",
            threshold="rolling",
            rolling_quantile=QUANTILE,
            min_rolling=64,
            drift_monitor_factory=_monitor_factory,
            lifecycle=manager,
            quorum=1.0,
        )
        swaps_seen = 0
        voters_before_swap: set[int] = set()
        round_size = service.n_workers * service.batches_per_round
        pending: set[int] = set()
        for result in service.process(_batches(X)):
            if result.drift is not None and result.drift.drifted:
                pending.add(result.index % 2)  # round-robin: shard = g % 2
            if service.n_swaps_ > swaps_seen:
                swaps_seen = service.n_swaps_
                voters_before_swap = set(pending)
                pending.clear()
        assert swaps_seen >= 1
        assert voters_before_swap == {0, 1}

    def test_a_trial_never_sees_shadow_scores_from_before_it_opened(self):
        # batches_per_round=4 with 2 workers: rounds of 8 batches.  Batch 15
        # closes round 1 and opens trial 1; round 2 is double-scored with its
        # candidate, and the one-batch trial is rejected at batch 16.  Batch
        # 17's firing then opens trial 2 mid-round: the rest of round 2 still
        # carries trial 1's candidate scores, so trial 2 must wait for round 3.
        class _MarkerMonitor:
            def update(self, scores, X):
                return DriftReport(
                    drifted=bool(X[0, 0] > 50.0), score_shift=0.0,
                    feature_shift=0.0, threshold=0.0, n_samples_seen=len(scores),
                )

            def reset(self, **kwargs):
                pass

        rng = np.random.default_rng(0)
        detector = _factory().fit(rng.normal(size=(500, 4)))
        batches = [rng.normal(size=(32, 4)) for _ in range(32)]
        for g in (15, 17):
            batches[g][0, 0] = 100.0
        manager = LifecycleManager(
            FullRefit(_factory),
            min_refit_rows=64,
            # far too few rows for a verdict: every trial ends in a reject
            shadow=ShadowEvaluator(rounds=1, min_samples=10_000),
        )
        service = ShardedDetectionService(
            detector,
            n_workers=2,
            threshold="auto",
            drift_monitor_factory=_MarkerMonitor,
            lifecycle=manager,
            quorum=0.5,
        )
        decided_at: list[tuple[str, int]] = []
        for result in service.process(batches):
            decided_at.extend(
                (event.action, result.index)
                for event in manager.events[len(decided_at):]
            )
        assert decided_at == [
            ("shadow_start", 15),
            ("shadow_reject", 16),
            ("shadow_start", 17),
            ("shadow_reject", 24),
        ]

    def test_lifecycle_requires_drift_monitor_factory(self, drifted_stream):
        _, _, _, detector = drifted_stream
        manager = LifecycleManager(FullRefit(_factory))
        with pytest.raises(ValueError, match="drift votes"):
            ShardedDetectionService(detector, lifecycle=manager)

    def test_quorum_validation(self, drifted_stream):
        _, _, _, detector = drifted_stream
        with pytest.raises(ValueError, match="quorum"):
            ShardedDetectionService(detector, quorum=0.0)
        with pytest.raises(ValueError, match="shard_mode"):
            ShardedDetectionService(detector, shard_mode="random")


class TestGreedyShardAssignment:
    def test_assignment_is_least_loaded_and_deterministic(self, drifted_stream):
        _, _, _, detector = drifted_stream
        service = ShardedDetectionService(
            detector, n_workers=2, shard_mode="greedy"
        )
        items = [
            (0, np.zeros((1000, 8))),
            (1, np.zeros((10, 8))),
            (2, np.zeros((10, 8))),
            (3, np.zeros((980, 8))),
            (4, np.zeros((10, 8))),
        ]
        # g0 loads worker 0; the small batches then pile on worker 1 until
        # its row count passes worker 0's
        assert service._assign_round(items) == {0: 0, 1: 1, 2: 1, 3: 1, 4: 0}

    @pytest.mark.parametrize("mode", ["thread"])
    def test_greedy_matches_sequential_alerts_on_ragged_batches(
        self, drifted_stream, mode
    ):
        train, X, y, detector = drifted_stream
        # ragged sizes exercise the load-aware assignment
        sizes = [300, 20, 20, 260, 40, 300, 20, 260, 40, 300]
        batches, start = [], 0
        for size in sizes:
            batches.append(X[start : start + size])
            start += size

        sequential_sink = ListSink()
        DetectionService(
            detector, threshold="auto", sinks=[sequential_sink]
        ).run(iter(batches))
        greedy_sink = ListSink()
        service = ShardedDetectionService(
            detector,
            n_workers=2,
            mode=mode,
            shard_mode="greedy",
            threshold="auto",
            sinks=[greedy_sink],
        )
        report = service.run(iter(batches))

        def alert_tuples(events):
            return [
                (a.batch_index, a.sample_index, a.score, a.threshold)
                for a in events
                if isinstance(a, Alert)
            ]

        assert alert_tuples(greedy_sink.events) == alert_tuples(
            sequential_sink.events
        )
        assert report.n_samples == sum(sizes)
        # greedy actually balanced rows across the two workers
        rows = service._worker_rows
        assert abs(rows[0] - rows[1]) <= max(sizes)

"""Hot-swap under sharding + end-to-end lifecycle acceptance.

The contract under test (see :mod:`repro.serve.parallel`):

* on a stream with injected covariate drift (``datasets.streaming``), the
  service detects drift, refits from the clean window, republishes to the
  registry, and post-swap alert precision/recall recovers to within
  tolerance of a model fit directly on post-drift data — sequential and
  sharded, with the sharded swaps landing on the same batches;
* a shadow trial is fed only batches scored after it opened.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.streaming import inject_drift
from repro.metrics.classification import precision_score, recall_score
from repro.novelty import IsolationForest
from repro.serve import (
    DetectionService,
    DriftMonitor,
    FullRefit,
    LifecycleManager,
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
        runs = {}
        for kind in ("sequential", mode):
            registry, manager = _lifecycle(detector, tmp_path / kind)
            sharded = {"n_workers": 2} if kind == mode else {}
            service = (ShardedDetectionService if sharded else DetectionService)(
                detector,
                **sharded,
                threshold="rolling",
                rolling_window=1024,
                rolling_quantile=QUANTILE,
                min_rolling=64,
                drift_monitor=_monitor_factory(),
                lifecycle=manager,
            )
            runs[kind] = (list(service.process(_batches(X))), service, registry)
        results, service, registry = runs[mode]

        assert service.epoch_ >= 1
        assert registry.latest_version("ids") >= 2
        # The swaps land on the same batches as in the sequential service,
        # and every batch carries the same epoch and predictions.
        sequential = runs["sequential"][0]
        assert [r.model_epoch for r in results] == [r.model_epoch for r in sequential]
        for ours, theirs in zip(results, sequential):
            np.testing.assert_array_equal(ours.predictions, theirs.predictions)
        _assert_recovered(X, y, results, service.epoch_, detector)


class TestCoordination:
    def test_a_trial_never_sees_shadow_scores_from_before_it_opened(self):
        # Batch 15 opens trial 1; batch 16 is double-scored with its
        # candidate and the one-batch trial is rejected there.  Batch 17's
        # firing opens trial 2, whose first shadow batch is 18: a trial is
        # fed only batches scored after it opened, exactly as sequentially.
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
            ("shadow_reject", 18),
        ]

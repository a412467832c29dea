"""Shadow evaluation: trial statistics, lifecycle wiring, e2e equivalence.

The acceptance contract of the shadow layer (see
:mod:`repro.serve.lifecycle.shadow`):

* a *bad* candidate — one that passes the clean-window quality gate but
  disagrees with the live model on live traffic — is rejected by the shadow
  trial: the served model never changes, nothing is published, and a
  ``shadow_reject`` event records why;
* a *good* candidate swaps only after the verdict, with identical alerts and
  model epochs across the sequential and thread-sharded services (the
  sharded verdict is global and round-aligned);
* the registry's ``history.jsonl`` replays the full event lineage from a
  fresh process (a brand-new :class:`ModelRegistry` over the same directory).
"""

from __future__ import annotations

import numpy as np
import pytest

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

BATCH = 64
N_BATCHES = 40
N_FEATURES = 6
DRIFT_BATCH = 15
SHADOW_ROUNDS = 8
SWAP_BATCH = DRIFT_BATCH + SHADOW_ROUNDS + 1  # first batch scored post-swap


def _factory():
    return IsolationForest(n_estimators=30, random_state=0, threshold_quantile=0.92)


class _InvertedForest:
    """Gate-passing but live-disagreeing scorer: an isolation forest with the
    score axis flipped.  Its own threshold still flags ~8% of its training
    window (so the clean-window quality gate accepts it), yet on live traffic
    it ranks exactly the *opposite* rows anomalous — the failure mode only a
    live-agreement trial can catch."""

    def __init__(self):
        self._forest = _factory()
        self.threshold_ = None

    def fit(self, X):
        self._forest.fit(X)
        self.threshold_ = float(
            np.quantile(-self._forest.score_samples(X), 0.92)
        )
        return self

    def score_samples(self, X):
        return -self._forest.score_samples(X)


@pytest.fixture(scope="module")
def shadow_stream():
    """Clean stream with one planted anomaly per batch and a one-batch
    covariate transient at ``DRIFT_BATCH``.

    The transient fires every monitor that sees the batch exactly once
    (feature mean moves ~0.75 sigma through a 256-sample window) and then
    leaves the stream, so the refit window on either side of the sharding
    split is identical and the three service flavors stay comparable
    batch for batch.
    """
    rng = np.random.default_rng(42)
    train = rng.normal(size=(1500, N_FEATURES))
    X = rng.normal(size=(N_BATCHES * BATCH, N_FEATURES))
    for b in range(N_BATCHES):
        X[b * BATCH + 10] += 8.0  # one clear anomaly per batch
    X[DRIFT_BATCH * BATCH : (DRIFT_BATCH + 1) * BATCH] += 3.0
    detector = _factory().fit(train)
    ref_scores = detector.score_samples(train)
    return train, X, detector, ref_scores


def _batches(X):
    return [X[start : start + BATCH] for start in range(0, X.shape[0], BATCH)]


def _monitor(ref_scores, train):
    return DriftMonitor(
        window=256, threshold=0.5, min_samples=256, cooldown=100
    ).set_reference(ref_scores, train)


def _manager(registry_dir, detector, factory=_factory):
    registry = ModelRegistry(registry_dir)
    registry.publish(detector, "ids")
    manager = LifecycleManager(
        FullRefit(factory),
        buffer=WindowBuffer(2048),
        registry=registry,
        model_name="ids",
        min_refit_rows=256,
        serving_version=1,
        shadow=ShadowEvaluator(
            rounds=SHADOW_ROUNDS, min_agreement=0.3, min_rank_correlation=0.3
        ),
    )
    return registry, manager


# ---------------------------------------------------------------------------
# Trial statistics
# ---------------------------------------------------------------------------
class TestShadowTrial:
    def _trial(self, **kwargs):
        defaults = dict(rounds=3, min_agreement=0.6, min_rank_correlation=0.5,
                        min_samples=4)
        defaults.update(kwargs)
        return ShadowEvaluator(**defaults).begin(candidate=object())

    def test_identical_scores_pass_with_perfect_agreement(self, rng):
        trial = self._trial()
        scores = rng.normal(size=50)
        for _ in range(3):
            trial.observe(scores, 1.0, scores)
        assert trial.complete
        verdict = trial.verdict()
        assert verdict.passed
        assert verdict.alert_agreement == 1.0
        assert verdict.rank_correlation == pytest.approx(1.0)
        assert verdict.n_rounds == 3 and verdict.n_samples == 150

    def test_inverted_scores_fail_both_statistics(self, rng):
        trial = self._trial()
        scores = rng.normal(size=50)
        for _ in range(3):
            trial.observe(scores, 1.0, -scores)
        verdict = trial.verdict()
        assert not verdict.passed
        assert verdict.rank_correlation == pytest.approx(-1.0)
        assert verdict.alert_agreement < 0.3
        assert "overlap" in verdict.reason and "correlation" in verdict.reason

    def test_monotone_transform_preserves_rank_correlation(self, rng):
        # Rank correlation is scale-free: any monotone rescoring agrees fully.
        trial = self._trial(rounds=1)
        scores = rng.normal(size=64)
        trial.observe(scores, np.inf, np.exp(scores))
        assert trial.verdict().rank_correlation == pytest.approx(1.0)

    def test_empty_batches_are_not_rounds(self, rng):
        trial = self._trial(rounds=2)
        trial.observe(np.empty(0), float("nan"), np.empty(0))
        assert trial.n_rounds_ == 0 and not trial.complete
        scores = rng.normal(size=16)
        trial.observe(scores, 0.0, scores)
        trial.observe(scores, 0.0, scores)
        assert trial.complete

    def test_observations_after_completion_are_ignored(self, rng):
        # The sharded service merges a whole round before the boundary
        # resolves the verdict; the overshoot must not change the stats.
        trial = self._trial(rounds=1)
        scores = rng.normal(size=32)
        trial.observe(scores, 0.0, scores)
        assert trial.complete
        trial.observe(scores, 0.0, -scores)
        assert trial.n_rounds_ == 1
        assert trial.verdict().rank_correlation == pytest.approx(1.0)

    def test_thin_evidence_is_rejected(self, rng):
        trial = self._trial(rounds=1, min_samples=64)
        scores = rng.normal(size=8)
        trial.observe(scores, 0.0, scores)
        verdict = trial.verdict()
        assert not verdict.passed
        assert "min_samples" in verdict.reason

    def test_no_live_alerts_defers_to_rank_correlation(self, rng):
        trial = self._trial(rounds=1)
        scores = rng.normal(size=32)
        trial.observe(scores, np.inf, scores)  # nothing flagged
        verdict = trial.verdict()
        assert verdict.passed
        assert verdict.alert_agreement is None and verdict.n_live_alerts == 0
        assert verdict.rank_correlation == pytest.approx(1.0)

    def test_all_alert_batches_are_vacuous_for_overlap(self, rng):
        # k == n is as uninformative as k == 0 under rate-matching: any
        # candidate's top-n trivially equals the live set.  An inverted
        # candidate must not collect a perfect overlap from such batches —
        # the (still measurable) rank correlation rejects it.
        trial = self._trial(rounds=2)
        scores = rng.normal(size=32)
        for _ in range(2):
            trial.observe(scores, -np.inf, -scores)  # live flags everything
        verdict = trial.verdict()
        assert verdict.alert_agreement is None  # nothing rate-matchable
        assert verdict.n_live_alerts == 64  # but the audit trail stays honest
        assert not verdict.passed
        assert verdict.rank_correlation == pytest.approx(-1.0)

    def test_single_row_batches_have_no_evidence_and_reject(self, rng):
        # Regression: row-by-row streaming produces neither a per-batch rank
        # correlation (needs 2 rows) nor a rate-matched overlap (k is 0 or
        # n); a fabricated 0.0 correlation used to fail with a misleading
        # reason — now the verdict states the real problem and never
        # promotes on zero evidence.
        trial = self._trial(rounds=8, min_samples=8)
        for value in rng.normal(size=8):
            score = np.array([abs(value) + 1.0])
            trial.observe(score, 0.5, score)  # every 1-row batch flagged
        verdict = trial.verdict()
        assert not verdict.passed
        assert verdict.rank_correlation is None
        assert verdict.alert_agreement is None
        assert "no measurable agreement statistic" in verdict.reason

    def test_nan_threshold_skips_overlap_not_correlation(self, rng):
        trial = self._trial(rounds=1)
        scores = rng.normal(size=32)
        trial.observe(scores, float("nan"), scores)
        verdict = trial.verdict()
        assert verdict.n_live_alerts == 0
        assert verdict.rank_correlation == pytest.approx(1.0)

    def test_mismatched_score_lengths_raise(self):
        trial = self._trial()
        with pytest.raises(ValueError, match="candidate scores"):
            trial.observe(np.zeros(4), 0.0, np.zeros(5))

    def test_verdict_serializes(self, rng):
        trial = self._trial(rounds=1)
        scores = rng.normal(size=16)
        trial.observe(scores, 0.0, scores)
        payload = trial.verdict().to_dict()
        assert payload["passed"] is True
        assert set(payload) >= {
            "n_rounds", "n_samples", "alert_agreement", "rank_correlation",
        }

    def test_evaluator_validation(self):
        with pytest.raises(ValueError, match="rounds"):
            ShadowEvaluator(rounds=0)
        with pytest.raises(ValueError, match="min_agreement"):
            ShadowEvaluator(min_agreement=0.0)
        with pytest.raises(ValueError, match="min_rank_correlation"):
            ShadowEvaluator(min_rank_correlation=1.5)
        with pytest.raises(ValueError, match="min_samples"):
            ShadowEvaluator(min_samples=1)


# ---------------------------------------------------------------------------
# Manager integration
# ---------------------------------------------------------------------------
class TestManagerShadowIntegration:
    def _filled_manager(self, tmp_path, rng, **shadow_kwargs):
        train = rng.normal(size=(600, 4))
        detector = IsolationForest(
            n_estimators=20, random_state=0, threshold_quantile=0.9
        ).fit(train)
        registry = ModelRegistry(tmp_path)
        registry.publish(detector, "ids")
        defaults = dict(rounds=2, min_agreement=0.3, min_rank_correlation=0.3,
                        min_samples=8)
        defaults.update(shadow_kwargs)
        manager = LifecycleManager(
            FullRefit(lambda: IsolationForest(
                n_estimators=20, random_state=0, threshold_quantile=0.9
            )),
            buffer=WindowBuffer(512),
            registry=registry,
            model_name="ids",
            min_refit_rows=64,
            serving_version=1,
            shadow=ShadowEvaluator(**defaults),
        )
        manager.buffer.add(rng.normal(size=(400, 4)))
        return registry, manager, detector

    def test_gate_passed_candidate_defers_publish_and_starts_trial(
        self, tmp_path, rng
    ):
        registry, manager, detector = self._filled_manager(tmp_path, rng)
        candidate, event = manager.produce_candidate(detector)
        assert candidate is None  # nothing to swap yet
        assert event.action == "shadow_start"
        assert event.gate is not None and event.gate.passed
        assert manager.shadow_pending()
        assert manager.shadow_candidate is not None
        assert registry.versions("ids") == [1]  # publish deferred
        assert manager.serving_version == 1

    def test_drift_during_trial_is_skipped(self, tmp_path, rng):
        _, manager, detector = self._filled_manager(tmp_path, rng)
        manager.produce_candidate(detector)
        candidate, event = manager.produce_candidate(detector)
        assert candidate is None
        assert event.action == "skipped"
        assert "shadow trial in progress" in event.reason

    def test_passing_trial_publishes_and_returns_candidate(self, tmp_path, rng):
        registry, manager, detector = self._filled_manager(tmp_path, rng)
        manager.produce_candidate(detector)
        shadow_model = manager.shadow_candidate
        scores = rng.normal(size=64)
        for _ in range(2):
            manager.observe_shadow(scores, 0.5, scores)
        resolution = manager.shadow_resolution()
        assert resolution is not None
        candidate, event = resolution
        assert candidate is shadow_model
        assert event.action == "shadow_pass"
        assert event.shadow is not None and event.shadow.passed
        assert event.published_version == 2
        assert registry.versions("ids") == [1, 2]
        assert manager.serving_version == 2
        assert not manager.shadow_pending()
        # the published snapshot carries the verdict in its metadata
        manifest = registry.resolve("ids", 2).manifest
        assert manifest["metadata"]["lifecycle"]["shadow"]["passed"] is True

    def test_failing_trial_discards_candidate_unpublished(self, tmp_path, rng):
        registry, manager, detector = self._filled_manager(tmp_path, rng)
        manager.produce_candidate(detector)
        scores = rng.normal(size=64)
        for _ in range(2):
            manager.observe_shadow(scores, 0.5, -scores)
        candidate, event = manager.shadow_resolution()
        assert candidate is None
        assert event.action == "shadow_reject"
        assert not event.shadow.passed
        assert registry.versions("ids") == [1]
        assert manager.serving_version == 1
        assert not manager.shadow_pending()

    def test_resolution_is_none_while_running_or_idle(self, tmp_path, rng):
        _, manager, detector = self._filled_manager(tmp_path, rng)
        assert manager.shadow_resolution() is None  # no trial at all
        manager.produce_candidate(detector)
        assert manager.shadow_resolution() is None  # trial not complete

    def test_shadow_type_is_validated(self):
        with pytest.raises(TypeError, match="ShadowEvaluator"):
            LifecycleManager(FullRefit(lambda: None), shadow=object())


# ---------------------------------------------------------------------------
# Sequential end-to-end
# ---------------------------------------------------------------------------
class TestSequentialShadow:
    def test_bad_candidate_rejected_by_live_disagreement(
        self, shadow_stream, tmp_path
    ):
        train, X, detector, ref_scores = shadow_stream
        registry, manager = _manager(
            tmp_path, detector, factory=_InvertedForest
        )
        service = DetectionService(
            detector,
            threshold="auto",
            drift_monitor=_monitor(ref_scores, train),
            lifecycle=manager,
        )
        results = [service.process_batch(batch) for batch in _batches(X)]

        assert service.drift_batches_ == [DRIFT_BATCH]
        actions = [event.action for event in manager.events]
        assert actions == ["shadow_start", "shadow_reject"]
        reject = manager.events[-1]
        assert reject.shadow.rank_correlation < 0
        assert reject.shadow.alert_agreement < 0.3
        assert not reject.swapped
        # the served model never changed: same object, epoch untouched,
        # every batch scored by epoch 0, and nothing new was published
        assert service.detector is detector
        assert service.epoch_ == 0
        assert all(result.model_epoch == 0 for result in results)
        assert registry.versions("ids") == [1]

    def test_candidate_scoring_reuses_micro_batch_scorer(
        self, shadow_stream, tmp_path
    ):
        train, X, detector, ref_scores = shadow_stream

        class _SpyForest(_InvertedForest):
            chunks: list[int] = []

            def score_samples(self, inner_X):
                type(self).chunks.append(int(inner_X.shape[0]))
                return -self._forest.score_samples(inner_X)

        _SpyForest.chunks = []
        _, manager = _manager(tmp_path, detector, factory=_SpyForest)
        service = DetectionService(
            detector,
            threshold="auto",
            micro_batch_size=16,
            drift_monitor=_monitor(ref_scores, train),
            lifecycle=manager,
        )
        for batch in _batches(X)[: DRIFT_BATCH + 3]:
            service.process_batch(batch)
        # the gate scores the refit window in one call; the shadow rounds
        # afterwards go through the service scorer in micro-batched chunks
        assert _SpyForest.chunks, "candidate was never shadow-scored"
        assert max(_SpyForest.chunks[1:]) <= 16


# ---------------------------------------------------------------------------
# Equivalence: sequential vs thread-sharded
# ---------------------------------------------------------------------------
class TestShadowEquivalence:
    def _run(self, kind, shadow_stream, registry_dir):
        train, X, detector, ref_scores = shadow_stream
        registry, manager = _manager(registry_dir, detector)
        sink = ListSink()
        if kind == "sequential":
            service = DetectionService(
                detector,
                threshold="auto",
                drift_monitor=_monitor(ref_scores, train),
                lifecycle=manager,
                sinks=[sink],
            )
        else:
            service = ShardedDetectionService(
                detector,
                n_workers=2,
                mode=kind,
                threshold="auto",
                drift_monitor_factory=lambda: _monitor(ref_scores, train),
                lifecycle=manager,
                sinks=[sink],
            )
        results = sorted(
            service.process(_batches(X)), key=lambda result: result.index
        )
        alerts = [
            (alert.batch_index, alert.sample_index, alert.score, alert.threshold)
            for alert in sink.events
            if isinstance(alert, Alert)
        ]
        return results, alerts, manager, registry

    @pytest.mark.parametrize("mode", ["thread"])
    def test_good_candidate_swaps_identically(
        self, shadow_stream, tmp_path, mode
    ):
        seq_results, seq_alerts, seq_manager, _ = self._run(
            "sequential", shadow_stream, tmp_path / "seq"
        )
        sh_results, sh_alerts, sh_manager, _ = self._run(
            mode, shadow_stream, tmp_path / mode
        )
        seq_epochs = [result.model_epoch for result in seq_results]
        sh_epochs = [result.model_epoch for result in sh_results]
        # the verdict lands at the same batch in both services:
        # epoch 0 through the trial, epoch 1 from SWAP_BATCH on
        assert seq_epochs == sh_epochs
        assert seq_epochs[SWAP_BATCH - 1] == 0
        assert seq_epochs[SWAP_BATCH] == 1
        assert all(epoch == 1 for epoch in seq_epochs[SWAP_BATCH:])
        # bit-identical alerts, pre- and post-swap
        assert seq_alerts == sh_alerts
        for manager in (seq_manager, sh_manager):
            assert [event.action for event in manager.events] == [
                "shadow_start",
                "shadow_pass",
            ]
            assert manager.events[-1].swapped
            assert manager.events[-1].published_version == 2

    def test_history_replays_after_restart(self, shadow_stream, tmp_path):
        _, _, manager, registry = self._run(
            "sequential", shadow_stream, tmp_path
        )
        recorded = [event.to_dict() for event in manager.events]
        assert recorded  # shadow_start + shadow_pass at minimum
        # a fresh registry object over the same directory (= a new process)
        # replays the identical lineage, and GC keeps the audit trail
        reopened = ModelRegistry(tmp_path)
        assert reopened.history("ids") == recorded
        reopened.gc("ids", keep=1)
        assert reopened.history("ids") == recorded
        replayed = reopened.history("ids")
        assert replayed[0]["action"] == "shadow_start"
        assert replayed[-1]["action"] == "shadow_pass"
        assert replayed[-1]["shadow"]["passed"] is True
        assert replayed[-1]["published_version"] == 2

    def test_history_cli_rejects_version_and_unknown_model(
        self, shadow_stream, tmp_path, capsys
    ):
        from repro.serve.cli import main

        self._run("sequential", shadow_stream, tmp_path)
        assert main(["registry", "history", "ids", "--registry", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "shadow_pass" in out and "agreement" in out
        # like `registry gc`, a stray positional version must not be
        # silently ignored (the lineage file spans every version)
        with pytest.raises(SystemExit, match="no version argument"):
            main(["registry", "history", "ids", "2", "--registry", str(tmp_path)])
        # and a typo'd model name must not look like an empty-but-valid lineage
        with pytest.raises(SystemExit, match="no published versions"):
            main(["registry", "history", "nope", "--registry", str(tmp_path)])


class TestShadowCliValidation:
    def test_shadow_flags_are_validated(self):
        from repro.serve.cli import main

        with pytest.raises(SystemExit, match="requires --refit"):
            main(["serve", "--shadow-rounds", "3"])
        with pytest.raises(SystemExit, match="shadow-min-agreement"):
            main([
                "serve", "--refit", "full", "--shadow-rounds", "3",
                "--shadow-min-agreement", "1.5",
            ])
        # an agreement threshold without --shadow-rounds would silently run
        # with shadow evaluation disabled — refuse instead
        with pytest.raises(SystemExit, match="no effect without"):
            main(["serve", "--refit", "full", "--shadow-min-agreement", "0.9"])

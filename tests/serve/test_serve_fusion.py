"""FusionDetector: normalized-score combination rules and their contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.novelty import HBOS, IsolationForest, KNNDetector, MahalanobisDetector
from repro.serve.fusion import FusionDetector


def _members():
    return [
        IsolationForest(n_estimators=15, max_samples=64, random_state=0),
        KNNDetector(n_neighbors=5, random_state=0),
        HBOS(n_bins=10),
    ]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(9)
    X_train = rng.normal(size=(400, 5))
    X_normal = rng.normal(size=(100, 5))
    X_anomalous = rng.normal(6.0, 1.0, size=(100, 5))
    return X_train, X_normal, X_anomalous


class TestContract:
    @pytest.mark.parametrize("combine", ["mean", "max", "pcr"])
    def test_detector_contract(self, data, combine):
        X_train, X_normal, X_anomalous = data
        fusion = FusionDetector(_members(), combine=combine).fit(X_train)
        scores = fusion.score_samples(np.vstack([X_normal, X_anomalous]))
        assert scores.shape == (200,)
        assert np.all(np.isfinite(scores))
        assert fusion.threshold_ is not None
        normal_scores = fusion.score_samples(X_normal)
        anomalous_scores = fusion.score_samples(X_anomalous)
        assert anomalous_scores.mean() > normal_scores.mean()
        predictions = fusion.predict(np.vstack([X_normal, X_anomalous]))
        assert set(np.unique(predictions)).issubset({0, 1})

    def test_empty_and_unfitted(self, data):
        X_train, _, _ = data
        fusion = FusionDetector(_members())
        with pytest.raises(RuntimeError):
            fusion.score_samples(np.zeros((3, 5)))
        fusion.fit(X_train)
        assert fusion.score_samples(np.empty((0, 5))).shape == (0,)
        with pytest.raises(ValueError, match="features"):
            fusion.score_samples(np.zeros((3, 7)))

    def test_member_scores_rejects_wrong_width(self, data):
        # Regression: member_scores skipped the width check score_samples
        # performs, so a mismatched batch surfaced as a raw NumPy broadcast
        # error (or silently wrong standardized scores when it broadcast).
        X_train, X_normal, _ = data
        fusion = FusionDetector(_members()).fit(X_train)
        assert fusion.member_scores(X_normal).shape == (100, 3)
        with pytest.raises(ValueError, match="features"):
            fusion.member_scores(np.zeros((3, 7)))
        with pytest.raises(ValueError, match="features"):
            fusion.member_scores(np.empty((0, 7)))  # empty but still wrong

    @pytest.mark.parametrize("combine", ["mean", "max", "pcr"])
    def test_diagnostics_describe_their_own_call(self, data, combine):
        X_train, X_normal, X_anomalous = data
        fusion = FusionDetector(_members(), combine=combine).fit(X_train)
        scores, first = fusion.score_samples_with_diagnostics(X_normal)
        np.testing.assert_array_equal(scores, fusion.score_samples(X_normal))
        assert set(first) == {"member_failed", "member_weights", "conflict_mass"}
        assert first["member_failed"] == ()
        assert len(first["member_weights"]) == 3
        _, second = fusion.score_samples_with_diagnostics(X_anomalous)
        # The attributes follow the last call; each returned dict keeps its own.
        assert fusion.conflict_mass_ == second["conflict_mass"]
        assert fusion.member_weights_ == second["member_weights"]
        assert first["conflict_mass"] != second["conflict_mass"]
        _, again = fusion.score_samples_with_diagnostics(X_normal)
        assert again == first
        empty_scores, empty = fusion.score_samples_with_diagnostics(np.empty((0, 5)))
        assert empty_scores.shape == (0,)
        assert empty == {"member_failed": ()}

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            FusionDetector([MahalanobisDetector()])
        with pytest.raises(ValueError, match="combine"):
            FusionDetector(_members(), combine="median")


class TestCombinationRules:
    def test_mean_and_max_definitions(self, data):
        X_train, X_normal, _ = data
        fusion = FusionDetector(_members(), combine="mean").fit(X_train)
        standardized = fusion.member_scores(X_normal)
        np.testing.assert_allclose(
            fusion.score_samples(X_normal), standardized.mean(axis=1), rtol=1e-12
        )
        fusion.combine = "max"
        np.testing.assert_allclose(
            fusion.score_samples(X_normal), standardized.max(axis=1), rtol=1e-12
        )

    def test_pcr_bounded_by_member_extremes(self, data):
        X_train, X_normal, X_anomalous = data
        fusion = FusionDetector(_members(), combine="pcr").fit(X_train)
        X = np.vstack([X_normal, X_anomalous])
        standardized = fusion.member_scores(X)
        fused = fusion.score_samples(X)
        assert np.all(fused <= standardized.max(axis=1) + 1e-12)
        assert np.all(fused >= standardized.min(axis=1) - 1e-12)

    def test_pcr_damps_single_dissenter(self, data):
        # Two members agree, one wildly disagrees: the PCR-fused score must
        # sit closer to the consensus than the plain mean does.
        X_train, X_normal, _ = data
        fusion = FusionDetector(_members(), combine="pcr").fit(X_train)
        standardized = np.array([[0.1, 0.2, 5.0]])
        pcr = fusion._fuse(standardized)[0]
        mean = standardized.mean()
        consensus = np.median(standardized)
        assert abs(pcr - consensus) < abs(mean - consensus)

    def test_calibrate_without_refit(self, data):
        X_train, X_normal, _ = data
        members = [detector.fit(X_train) for detector in _members()]
        fusion = FusionDetector(members, combine="mean", refit_members=False)
        fusion.fit(X_normal)  # only calibrates: members keep their fit
        np.testing.assert_array_equal(
            members[0].score_samples(X_normal),
            fusion.detectors[0].score_samples(X_normal),
        )
        assert fusion.threshold_ is not None


class TestFusionServing:
    def test_snapshot_round_trip(self, data, tmp_path):
        X_train, X_normal, X_anomalous = data
        fusion = FusionDetector(_members(), combine="pcr").fit(X_train)
        X = np.vstack([X_normal, X_anomalous])
        fusion.save(tmp_path / "fusion")
        loaded = FusionDetector.load(tmp_path / "fusion")
        np.testing.assert_array_equal(loaded.score_samples(X), fusion.score_samples(X))
        assert loaded.combine == "pcr"

    def test_served_through_detection_service(self, data):
        from repro.serve.service import DetectionService

        X_train, X_normal, X_anomalous = data
        fusion = FusionDetector(_members(), combine="pcr").fit(X_train)
        X = np.vstack([X_normal, X_anomalous])
        service = DetectionService(fusion, threshold="auto", micro_batch_size=37)
        chunked = np.concatenate(
            [result.scores for result in service.process([X[:77], X[77:]])]
        )
        np.testing.assert_array_equal(chunked, fusion.score_samples(X))

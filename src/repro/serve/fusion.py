"""Score-level fusion of heterogeneous novelty detectors.

Different detector families produce scores on wildly different scales (an
isolation forest emits values near [0.4, 0.8], a kNN detector raw distances,
PCA a squared reconstruction error), so raw averaging is meaningless.
:class:`FusionDetector` standardises every member's scores against its own
training-score distribution and combines the standardised scores with one of
three rules:

* ``"mean"`` — the balanced committee vote;
* ``"max"`` — flag when *any* member is confident (highest recall);
* ``"pcr"`` — conflict-aware weighting in the spirit of the proportional
  conflict redistribution (PCR) rules of Smarandache & Dezert: per sample,
  each member's weight shrinks with its disagreement from the committee
  consensus, and the mass it loses is redistributed proportionally among the
  agreeing members (the renormalisation step).  A single detector that
  mis-fires on a sample is damped instead of dragging the fused score.

The fused model is itself a :class:`~repro.novelty.NoveltyDetector`: it has a
training-quantile default threshold, works with ``predict``, serves through
:class:`~repro.serve.service.DetectionService`, and snapshots/loads like any
single detector.
"""

from __future__ import annotations

import numpy as np

from repro.novelty.base import NoveltyDetector
from repro.utils.validation import check_array, check_fitted, check_n_features

__all__ = ["FusionDetector"]

_COMBINE_RULES = ("mean", "max", "pcr")


class FusionDetector(NoveltyDetector):
    """Serve an ensemble of detectors as one model via normalized-score fusion.

    Parameters
    ----------
    detectors:
        Member detectors (fitted or not — :meth:`fit` fits every member).
    combine:
        ``"mean"``, ``"max"`` or ``"pcr"`` (see module docstring).
    refit_members:
        When ``False``, :meth:`fit` assumes the members are already fitted
        and only calibrates the per-member score normalisation (useful when
        members come out of a model registry).
    """

    def __init__(
        self,
        detectors: list[NoveltyDetector] | tuple[NoveltyDetector, ...],
        *,
        combine: str = "pcr",
        refit_members: bool = True,
        threshold_quantile: float = 0.95,
    ) -> None:
        super().__init__(threshold_quantile=threshold_quantile)
        detectors = list(detectors)
        if len(detectors) < 2:
            raise ValueError("fusion requires at least 2 detectors")
        if combine not in _COMBINE_RULES:
            raise ValueError(f"combine must be one of {_COMBINE_RULES}")
        self.detectors = detectors
        self.combine = combine
        self.refit_members = refit_members
        self.loc_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None
        self.n_features_: int | None = None
        #: Failures recorded by the last :meth:`score_samples` call, one
        #: plain dict per dropped member (``index``, ``detector``, ``error``)
        #: — plain data so a snapshot round-trips it.  Empty when every
        #: member scored.
        self.member_failed_: tuple[dict, ...] = ()
        #: Per-member effective fusion weight of the last
        #: :meth:`score_samples` batch, aligned with :attr:`detectors`
        #: (``"pcr"``: per-sample conflict weights averaged over the batch;
        #: ``"max"``: each member's share of per-sample wins; ``"mean"``:
        #: uniform over survivors).  A member that failed on the batch holds
        #: ``nan``.  Empty before the first scored batch.
        self.member_weights_: tuple[float, ...] = ()
        #: Mean absolute deviation of standardized member scores from the
        #: committee consensus on the last scored batch — the total
        #: disagreement mass the PCR rule redistributes.  ``nan`` before the
        #: first scored batch.
        self.conflict_mass_: float = float("nan")

    # -- fitting -----------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "FusionDetector":
        X = check_array(X, name="X")
        if self.refit_members:
            for detector in self.detectors:
                detector.fit(X)
        self._calibrate(X)
        return self

    def calibrate(self, X: np.ndarray) -> "FusionDetector":
        """Recalibrate score normalisation (and the default threshold) on ``X``.

        Use after loading pre-fitted members (``refit_members=False``) or when
        the reference traffic has drifted but the members are still valid.
        """
        X = check_array(X, name="X")
        self._calibrate(X)
        return self

    def _calibrate(self, X: np.ndarray) -> None:
        reference = np.column_stack(
            [detector.score_samples(X) for detector in self.detectors]
        )
        self.loc_ = reference.mean(axis=0)
        scale = reference.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        self.n_features_ = X.shape[1]
        self._set_default_threshold(self._fuse((reference - self.loc_) / self.scale_))

    # -- scoring -----------------------------------------------------------------
    def _fuse(self, standardized: np.ndarray) -> np.ndarray:
        if self.combine == "mean":
            return standardized.mean(axis=1)
        if self.combine == "max":
            return standardized.max(axis=1)
        # PCR-style conflict-aware weighting: the conflict of member i on a
        # sample is its absolute deviation from the committee consensus; its
        # weight 1 / (1 + conflict) decays with conflict and the lost mass is
        # proportionally redistributed by the normalisation.
        consensus = standardized.mean(axis=1, keepdims=True)
        conflict = np.abs(standardized - consensus)
        weights = 1.0 / (1.0 + conflict)
        weights /= weights.sum(axis=1, keepdims=True)
        return (weights * standardized).sum(axis=1)

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        """Fused scores for ``X``, degrading gracefully over failing members.

        A member whose ``score_samples`` raises is dropped *for this call*:
        the surviving members' standardized scores are fused with the
        combination weights renormalized over the survivors (for ``"pcr"``
        the per-sample conflict weights renormalize naturally; for
        ``"mean"``/``"max"`` the rule applies to the surviving columns), in
        the PCR spirit of redistributing a conflicting source's mass instead
        of failing the committee.  Each drop is recorded in
        :attr:`member_failed_`; only when *every* member raises does the
        call fail, carrying the last member error as the cause.
        """
        return self.score_samples_with_diagnostics(X)[0]

    def score_samples_with_diagnostics(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, dict]:
        """:meth:`score_samples` plus the diagnostics of this call.

        Returns ``(scores, diagnostics)``, where ``diagnostics`` holds
        ``member_failed``, ``member_weights`` and ``conflict_mass`` (the
        last two only when ``X`` has rows) — the values the call also
        records on :attr:`member_failed_`, :attr:`member_weights_` and
        :attr:`conflict_mass_`.  Those attributes hold whichever call
        finished last; when threads score on one shared detector, only the
        returned dict is sure to describe these rows.  The serving telemetry
        publishes it as the ``fusion.*`` gauges.
        """
        check_fitted(self, "loc_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.n_features_, fitted_with="fusion was calibrated")
        self.member_failed_ = ()
        if X.shape[0] == 0:
            return np.empty(0), {"member_failed": ()}
        columns: list[np.ndarray] = []
        survivors: list[int] = []
        failures: list[dict] = []
        last_error: Exception | None = None
        for index, detector in enumerate(self.detectors):
            try:
                columns.append(
                    np.asarray(detector.score_samples(X), dtype=np.float64)
                )
            except Exception as exc:  # noqa: BLE001 - degradation is the point
                failures.append(
                    {
                        "index": index,
                        "detector": type(detector).__name__,
                        "error": repr(exc),
                    }
                )
                last_error = exc
                continue
            survivors.append(index)
        member_failed = tuple(failures)
        self.member_failed_ = member_failed
        if not survivors:
            raise RuntimeError(
                f"all {len(self.detectors)} fusion members failed to score"
            ) from last_error
        raw = np.column_stack(columns)
        keep = np.asarray(survivors, dtype=np.intp)
        standardized = (raw - self.loc_[keep]) / self.scale_[keep]
        member_weights, conflict_mass = self._diagnostics(standardized, keep)
        self.member_weights_ = member_weights
        self.conflict_mass_ = conflict_mass
        diagnostics = {
            "member_failed": member_failed,
            "member_weights": member_weights,
            "conflict_mass": conflict_mass,
        }
        return self._fuse(standardized), diagnostics

    def _diagnostics(
        self, standardized: np.ndarray, survivors: np.ndarray
    ) -> tuple[tuple[float, ...], float]:
        """Per-member weights and the conflict mass of the batch just scored."""
        n_samples, n_survivors = standardized.shape
        consensus = standardized.mean(axis=1, keepdims=True)
        conflict = np.abs(standardized - consensus)
        conflict_mass = float(conflict.mean()) if standardized.size else 0.0
        if self.combine == "pcr":
            weights = 1.0 / (1.0 + conflict)
            weights /= weights.sum(axis=1, keepdims=True)
            survivor_weights = weights.mean(axis=0)
        elif self.combine == "max":
            wins = np.bincount(
                standardized.argmax(axis=1), minlength=n_survivors
            )
            survivor_weights = wins / max(n_samples, 1)
        else:  # mean: the balanced committee
            survivor_weights = np.full(n_survivors, 1.0 / n_survivors)
        full = np.full(len(self.detectors), np.nan)
        full[survivors] = survivor_weights
        return tuple(float(w) for w in full), conflict_mass

    def member_scores(self, X: np.ndarray) -> np.ndarray:
        """``(n_samples, n_detectors)`` standardized per-member scores.

        Diagnostic view, deliberately strict: a raising member propagates
        here (the caller asked for *that member's* scores), unlike
        :meth:`score_samples`, which degrades over the survivors.
        """
        check_fitted(self, "loc_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.n_features_, fitted_with="fusion was calibrated")
        if X.shape[0] == 0:
            return np.empty((0, len(self.detectors)))
        raw = np.column_stack(
            [detector.score_samples(X) for detector in self.detectors]
        )
        return (raw - self.loc_) / self.scale_

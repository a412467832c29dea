"""Common interface for continual intrusion-detection methods.

A continual method sees the stream one experience at a time: :meth:`setup` is
called once with the clean normal data ``N_c`` (which the paper's framework
makes available to every method), then :meth:`fit_experience` is called per
experience with the *unlabeled* training split, and :meth:`predict` /
:meth:`score_samples` are used to evaluate on any test split.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["ContinualMethod"]


class ContinualMethod:
    """Base class for CND-IDS and the UCL baselines."""

    #: Whether :meth:`score_samples` is meaningful (ADCN / LwF classify via
    #: nearest labeled cluster and expose no anomaly score — paper Sec. IV-B).
    supports_scores: bool = True

    #: Whether the method consumes the small labeled calibration subset.
    requires_labels: bool = False

    def setup(self, clean_normal: np.ndarray) -> None:
        """Receive the clean normal reference set before the stream starts."""

    def fit_experience(
        self,
        X_train: np.ndarray,
        *,
        calibration_X: np.ndarray | None = None,
        calibration_y: np.ndarray | None = None,
    ) -> None:
        """Update the model with the unlabeled training data of one experience."""
        raise NotImplementedError

    def predict(self, X: np.ndarray, y_true: np.ndarray | None = None) -> np.ndarray:
        """Binary predictions (1 = attack) for a test batch.

        ``y_true`` is passed by the evaluation protocol so that methods using
        Best-F thresholding (CND-IDS and the static novelty detectors, as in
        the paper) can pick their threshold on the evaluated batch; methods
        that do not need it simply ignore the argument.
        """
        raise NotImplementedError

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        """Anomaly scores (higher = more anomalous); optional."""
        raise NotImplementedError(
            f"{type(self).__name__} does not expose anomaly scores"
        )

    def threshold_scores(self, scores: np.ndarray, y_true: np.ndarray | None = None) -> np.ndarray:
        """:meth:`predict` given the batch's :meth:`score_samples`; required by scoring methods."""
        raise NotImplementedError(f"{type(self).__name__} does not threshold anomaly scores")

    def update(self, X: np.ndarray) -> None:
        """Online update entry point used by the serving lifecycle layer.

        :class:`repro.serve.lifecycle.ContinualRefit` calls this with the
        clean recent window of a drifting stream; the default treats the
        window as one unlabeled experience.  Methods with a cheaper
        incremental path than :meth:`fit_experience` can override it.
        """
        self.fit_experience(np.asarray(X, dtype=np.float64))

    @property
    def name(self) -> str:
        """Human-readable method name used in experiment reports."""
        return type(self).__name__

    # -- persistence -----------------------------------------------------------
    def save(self, path: str | Path, *, metadata: dict | None = None) -> Path:
        """Checkpoint the full method state (model, scaler, pools) to ``path``.

        The checkpoint is a pickle-free snapshot (see
        :mod:`repro.serve.snapshot`); a loaded method scores identically and
        can continue training with :meth:`fit_experience`.
        """
        from repro.serve.snapshot import save_snapshot

        return save_snapshot(self, path, metadata=metadata)

    @classmethod
    def load(cls, path: str | Path) -> "ContinualMethod":
        """Load a checkpoint previously written by :meth:`save`."""
        from repro.serve.snapshot import load_snapshot

        return load_snapshot(path, expected_class=cls)

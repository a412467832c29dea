"""Sharded stream serving: a :class:`DetectionService` whose worker threads
only score ahead.

:class:`ShardedDetectionService` keeps a bounded lookahead of
``LOOKAHEAD_PER_WORKER * n_workers`` stream batches.  As a batch enters the
lookahead, a worker thread scores its finite rows with the model serving at
that moment, through the same micro-batched call the sequential service
makes.  The parent then serves the batches one at a time, in stream order,
through the inherited :meth:`~DetectionService.process_batch`: quarantine,
score, threshold update, shadow score, drift check and the per-batch tail
run exactly as in the sequential service, except that the score stage takes
the scores computed ahead.

Contract
--------
* Every :class:`~repro.serve.service.BatchResult` field but the measured
  latency, every sink event, every ``pipeline.*`` counter, every
  ``fusion.*`` gauge after each batch and the span tree equal a sequential
  run over the same stream: ``"rolling"`` thresholds,
  drift firings, model epochs and shadow verdicts included.
* Workers hold no state.  They read a batch and a model and return scores
  with the model's diagnostics for them (the ``fusion.*`` gauges); the
  rolling window, the drift monitor, the metrics registry, the tracer and
  the lifecycle belong to the parent alone.
* A swap (lifecycle refit, shadow verdict, ``on_drift`` reload) takes effect
  on the next batch, as in the sequential service: a batch scored ahead by a
  model that no longer serves is rescored inline by the parent.  Shadow
  scores are computed inline, with the candidate resolved before each batch.

Workers are threads sharing the fitted detector (scoring is read-only).
Without the native kernels scoring is GIL-bound and threads lose to the
sequential service; serve with one worker there.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.serve.drift import DriftMonitor
from repro.serve.service import BatchResult, DetectionService, ServiceReport, _finite_rows
from repro.utils.timing import Timer

__all__ = ["ShardedDetectionService"]

#: Batches held in the lookahead per worker thread.
LOOKAHEAD_PER_WORKER = 4


class ShardedDetectionService(DetectionService):
    """Serve a stream with its scoring done ahead on ``n_workers`` threads.

    Parameters
    ----------
    detector:
        Fitted object exposing ``score_samples``; shared with the workers.
    n_workers:
        Scoring threads; the lookahead holds ``4 * n_workers`` batches.
    mode:
        Only ``"thread"`` (the default) is accepted; any other value raises
        ``ValueError``.
    drift_monitor_factory:
        Optional zero-argument callable, called once to build the service's
        :class:`~repro.serve.drift.DriftMonitor` (instead of passing one as
        ``drift_monitor=``).
    **kwargs:
        Every other :class:`DetectionService` keyword, forwarded unchanged.
    """

    def __init__(
        self,
        detector: Any,
        *,
        n_workers: int = 2,
        mode: str = "thread",
        drift_monitor_factory: Callable[[], DriftMonitor] | None = None,
        **kwargs: Any,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if mode != "thread":
            raise ValueError(
                f"mode must be 'thread', got {mode!r}: process mode (and "
                "'auto', which could resolve to it) was removed"
            )
        if drift_monitor_factory is not None:
            if kwargs.get("drift_monitor") is not None:
                raise ValueError("pass drift_monitor or its factory, not both")
            kwargs["drift_monitor"] = drift_monitor_factory()
        super().__init__(detector, **kwargs)
        self.n_workers = n_workers
        self._wall_timer = Timer()
        # The served batch's scores from ahead, and the model that made them.
        self._ahead: tuple[Future | None, Any] = (None, None)

    def process(self, stream: Iterable[Any]) -> Iterator[BatchResult]:
        """Yield :class:`BatchResult`\\ s in stream order.

        The stream is pulled lazily, at most ``4 * n_workers`` batches ahead
        of the batch being served.
        """
        depth = LOOKAHEAD_PER_WORKER * self.n_workers
        lookahead: deque[tuple[Any, Future | None, Any]] = deque()
        with self._wall_timer, ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="repro-shard"
        ) as pool:
            for item in stream:
                lookahead.append(self._submit(pool, self._batch_features(item)))
                if len(lookahead) == depth:
                    yield self._serve(*lookahead.popleft())
            while lookahead:
                yield self._serve(*lookahead.popleft())

    def _submit(self, pool: Executor, X: Any) -> tuple[Any, Future | None, Any]:
        """Queue ``X`` for scoring by the served model, if it has rows and the
        stream's width; any other batch is left to the parent, which raises or
        quarantines it in stream order."""
        if self.n_features_ is None:
            X = self._validate_once(X)  # the stream's first batch fixes the width
        if np.ndim(X) != 2 or np.shape(X)[1] != self.n_features_ or not len(X):
            return X, None, self.detector
        return X, pool.submit(self._score_ahead, X, self.detector), self.detector

    def _score_ahead(self, X: Any, detector: Any) -> tuple[np.ndarray, dict | None]:
        """Worker body: a pure function of the batch and the model."""
        X, _ = _finite_rows(np.ascontiguousarray(np.asarray(X, dtype=np.float64)))
        if not X.shape[0]:
            return np.empty(0), None
        return self._score_micro_batched(X, detector)

    def _serve(self, X: Any, future: Future | None, detector: Any) -> BatchResult:
        self._ahead = (future, detector)
        try:
            return self.process_batch(X)
        finally:
            self._ahead = (None, None)

    def _score_served(self, X: np.ndarray) -> tuple[np.ndarray, dict | None]:
        future, detector = self._ahead
        if future is None or detector is not self.detector:
            return super()._score_served(X)  # swapped since submission: rescore
        return future.result()

    def report(self) -> ServiceReport:
        """Counters so far.

        ``total_time_s`` and the throughput are *wall-clock* over the
        ``process`` calls: the parent's score stage only waits for scores
        computed ahead, so summed stage time would overstate the rate.
        """
        report = super().report()
        if self._wall_timer.n_calls:
            wall = Timer(total=self._wall_timer.total, n_calls=1)
            report.total_time_s = wall.total
            report.throughput_samples_per_sec = wall.throughput(self.n_samples_)
        return report

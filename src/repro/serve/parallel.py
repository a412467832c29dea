"""Sharded, multi-worker stream serving: a :class:`DetectionService` whose
score stage fans out to worker threads.

:class:`ShardedDetectionService` is a
:class:`~repro.serve.service.DetectionService` that changes one thing: the
stream is consumed in *rounds* of ``n_workers * batches_per_round`` batches,
and each round's score stage (quarantine scan, score, threshold, shadow
score, drift check) runs on a thread pool, every worker driving its own
shard service over a deterministic shard.  The parent then runs the
inherited per-batch tail — sink emits, alerts, lifecycle, counters — for
each batch in global stream order and yields each result as soon as its
tail finished.  Sharding changes *where* a batch is scored, never *what*
its scores are or how the tail treats them.

Determinism contract
--------------------
* **Shard assignment is deterministic** — round-robin by global batch index
  (batch ``g`` goes to worker ``g % n_workers``) by default, or the opt-in
  ``shard_mode="greedy"`` least-loaded assignment, which depends only on the
  batch sizes seen so far, never on timing — either way a rerun shards
  identically.
* **Scores are bit-identical to the sequential service**: each batch is
  scored by the same micro-batched code path against the same model.
* **Alerts, drift events and quarantine announcements come from the one
  sequential tail**, in global stream order with global batch/sample
  indices; with a fixed or ``"auto"`` threshold the alert stream is
  *identical* to the sequential service's.
* **Rolling thresholds and drift monitors are per shard**: each worker's
  rolling window and monitor see only its own shard, so ``"rolling"``
  thresholds track the same distribution but are not batch-for-batch
  identical to a single sequential window.  Use a fixed or ``"auto"``
  threshold when exact sequential equivalence matters.

Coordinated hot-swap (epoch-tagged)
-----------------------------------
With a :class:`~repro.serve.lifecycle.LifecycleManager` (``lifecycle=``),
each shard's drift monitor only *votes*: the tail emits and counts every
firing, and the firing votes for its shard.  Once at least
``quorum * n_workers`` distinct shards have voted, the tail's drift
reaction runs the lifecycle's refit → gate → publish → swap once, exactly
as for a sequential service, and :meth:`ShardedDetectionService.reload_detector`
swaps the parent and every shard.  Swapping from the tail is safe because
the round's scoring has already finished: the new model serves from the
next round on, so within any round every shard scores with the same model
epoch (:attr:`BatchResult.model_epoch`).  A firing from a batch scored under
a superseded epoch is still emitted and counted but casts no vote, so the
epoch rises by at most one per round.  Votes clear on every reaction and on
every shadow verdict; while a shadow trial is open they are kept and
nothing else happens.

With a shadow evaluator, every batch of a round is double-scored with the
candidate under trial when the round started, and the tail feeds the trial
in global order — the verdict is global, never per shard, and its
``shadow_pass`` swap, like any swap, takes effect from the next round.

Fault tolerance
---------------
Rows quarantined by a shard (non-finite features) are announced by the
parent's tail in global order, and all sinks are wrapped so one raising
sink is disabled rather than fatal (:mod:`repro.serve.faults`).

Workers
-------
Workers are threads sharing the fitted detector (scoring is read-only; NumPy
and the native kernels release the GIL, so native-kernel detectors scale
well).  Without the native kernels scoring is GIL-bound and threads lose to
the sequential service; serve with one worker there.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.serve.drift import DriftMonitor
from repro.serve.service import (
    BatchResult,
    DetectionService,
    ServiceReport,
    _ScoredBatch,
)
from repro.serve.telemetry.context import TraceContext
from repro.serve.telemetry.metrics import MetricsRegistry
from repro.serve.telemetry.tracing import SpanBuffer, SpanTracer, trace_span
from repro.utils.timing import Timer

__all__ = ["ShardedDetectionService"]

_SHARD_MODES = ("round_robin", "greedy")


class ShardedDetectionService(DetectionService):
    """Serve a stream through ``n_workers`` sharded score stages.

    Parameters
    ----------
    detector:
        Fitted object exposing ``score_samples``; shared across the worker
        threads.
    n_workers:
        Number of shards/workers (``1`` degenerates to a sequential service
        with round overhead).
    mode:
        Worker backend.  Only ``"thread"`` (the default) is accepted and any
        other value raises ``ValueError``; the parameter stays so callers
        that pass ``mode="thread"`` keep working.
    shard_mode:
        ``"round_robin"`` (default) assigns batch ``g`` to worker
        ``g % n_workers``; the opt-in ``"greedy"`` assigns each batch to the
        worker with the fewest rows dispatched so far (ties break to the
        lowest index) — better balance for heterogeneous batch sizes, still
        fully deterministic, and the global-order tail is unchanged.
    threshold, rolling_window, rolling_quantile, min_rolling, micro_batch_size:
        Forwarded to every shard's :class:`DetectionService` (see there);
        rolling thresholds are evaluated per shard.
    drift_monitor_factory:
        Zero-argument callable building one fresh
        :class:`~repro.serve.drift.DriftMonitor` per shard.  Drift events are
        emitted in global batch order; with a lifecycle they double as the
        shards' swap votes.  A shared mutable monitor instance cannot be
        accepted — shards would race on its windows — hence a factory.
    lifecycle:
        Optional :class:`~repro.serve.lifecycle.LifecycleManager`.  The
        *parent* owns it: its tail feeds the clean rows to the window
        buffer, and when the shard vote reaches ``quorum`` the lifecycle
        refits once, publishes, and swaps every worker (see module
        docstring).
    quorum:
        Fraction of workers (in ``(0, 1]``) whose monitors must have voted
        drift since the last reaction before the lifecycle reacts.
    sinks:
        Alert sinks fed by the parent's tail (not the shards) so events
        arrive in global stream order exactly once.
    batches_per_round:
        The stream is consumed in rounds of
        ``n_workers * batches_per_round`` batches, bounding buffered memory
        while keeping every worker busy; a swap takes effect from the next
        round.
    telemetry, tracer, trace_context, metrics_every:
        Parent-side telemetry (see :class:`DetectionService`).  Each shard
        records its score-stage spans into its *own* registry; the parent
        records the tail's pipeline metrics, the ``round_submit`` spans and
        the sink emits.  ``metrics_snapshot()`` folds parent + shards in
        shard order into one global snapshot whose counters match a
        sequential run on the same stream; ``metrics_every`` emits that
        folded snapshot as a :class:`~repro.serve.telemetry.MetricsEvent`
        every N batches.
    """

    def __init__(
        self,
        detector: Any,
        *,
        n_workers: int = 2,
        mode: str = "thread",
        shard_mode: str = "round_robin",
        threshold: float | str = "auto",
        rolling_window: int = 4096,
        rolling_quantile: float = 0.95,
        min_rolling: int = 64,
        micro_batch_size: int = 1024,
        drift_monitor_factory: Callable[[], DriftMonitor] | None = None,
        lifecycle: Any = None,
        quorum: float = 0.5,
        sinks: Sequence[Any] = (),
        batches_per_round: int = 4,
        telemetry: MetricsRegistry | None = None,
        tracer: SpanTracer | None = None,
        trace_context: TraceContext | None = None,
        metrics_every: int | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if mode != "thread":
            raise ValueError(
                f"mode must be 'thread', got {mode!r}: process mode (and "
                "'auto', which could resolve to it) was removed"
            )
        if shard_mode not in _SHARD_MODES:
            raise ValueError(f"shard_mode must be one of {_SHARD_MODES}")
        if not 0.0 < quorum <= 1.0:
            raise ValueError("quorum must be in (0, 1]")
        if batches_per_round < 1:
            raise ValueError("batches_per_round must be at least 1")
        if isinstance(drift_monitor_factory, DriftMonitor):
            raise TypeError(
                "pass a factory building one DriftMonitor per shard, not a "
                "monitor instance (shards would race on its windows)"
            )
        if lifecycle is not None and drift_monitor_factory is None:
            raise ValueError(
                "a lifecycle needs drift votes: pass drift_monitor_factory "
                "so each shard can flag drift"
            )
        shard_kwargs = dict(
            threshold=threshold,
            rolling_window=rolling_window,
            rolling_quantile=rolling_quantile,
            min_rolling=min_rolling,
            micro_batch_size=micro_batch_size,
        )
        super().__init__(
            detector,
            sinks=sinks,
            lifecycle=lifecycle,
            telemetry=telemetry,
            tracer=tracer,
            trace_context=trace_context,
            metrics_every=metrics_every,
            **shard_kwargs,
        )
        self.n_workers = n_workers
        self.shard_mode = shard_mode
        self.quorum = quorum
        self.batches_per_round = batches_per_round
        # Shards inherit only the parent's *disabled* telemetry state; when
        # enabled each shard records into its own fresh registry (folded by
        # metrics_snapshot), never the parent's (threads would race).
        self._shard_services = [
            DetectionService(
                detector,
                drift_monitor=(
                    drift_monitor_factory() if drift_monitor_factory else None
                ),
                telemetry=None if self.telemetry.enabled else self.telemetry,
                **shard_kwargs,
            )
            for _ in range(n_workers)
        ]
        self._worker_rows = [0] * n_workers  # greedy-assignment load account
        self._drift_votes: set[int] = set()  # shards voting since last reaction
        self._shard_of: dict[int, int] = {}  # current round: batch -> shard
        self._round_shadow: Any = None  # candidate the round was shadow-scored by

    @property
    def n_swaps_(self) -> int:
        """Coordinated swaps so far (each one advances the epoch by one)."""
        return self.epoch_

    @property
    def _votes_needed(self) -> int:
        return max(1, math.ceil(self.quorum * self.n_workers - 1e-9))

    # -- rounds ------------------------------------------------------------------
    def _indexed_batches(self, stream: Iterable[Any]) -> Iterator[tuple[int, np.ndarray]]:
        # Validated here, not per shard: a shard that never receives a
        # width-changing batch could not raise the sequential error.
        for g, item in enumerate(stream, start=self.n_batches_):
            yield g, self._validate_once(self._batch_features(item))

    def _take_round(
        self, batches: Iterator[tuple[int, np.ndarray]]
    ) -> list[tuple[int, np.ndarray]]:
        round_size = self.n_workers * self.batches_per_round
        round_items: list[tuple[int, np.ndarray]] = []
        for item in batches:
            round_items.append(item)
            if len(round_items) >= round_size:
                break
        return round_items

    def _assign_round(
        self, round_items: list[tuple[int, np.ndarray]]
    ) -> dict[int, int]:
        """Deterministic global-batch-index -> shard mapping for one round."""
        if self.shard_mode == "round_robin":
            return {g: g % self.n_workers for g, _ in round_items}
        assignment: dict[int, int] = {}
        for g, X in round_items:
            shard = int(np.argmin(self._worker_rows))
            assignment[g] = shard
            self._worker_rows[shard] += int(X.shape[0])
        return assignment

    @staticmethod
    def _score_shard(
        service: DetectionService,
        items: list[tuple[int, np.ndarray]],
        shadow_detector: Any,
    ) -> list[_ScoredBatch]:
        """Worker body: the shard service's score stage, batch by batch."""
        scored = []
        for g, X in items:
            with service._batch_span(g) as batch_span:
                scored.append(service._score_stage(X, batch_span, shadow_detector))
        return scored

    def _score_round(
        self, pool: Executor, round_items: list[tuple[int, np.ndarray]]
    ) -> list[_ScoredBatch]:
        """Run one round's score stages on the pool; return them in global order."""
        self._shard_of = self._assign_round(round_items)
        shards: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(self.n_workers)]
        for g, X in round_items:
            shards[self._shard_of[g]].append((g, X))
        self._round_shadow = getattr(self.lifecycle, "shadow_candidate", None)
        with trace_span(
            "round_submit",
            metrics=self.telemetry,
            tracer=self.tracer,
            rows=sum(int(X.shape[0]) for _, X in round_items),
            context=self.trace_context,
        ) as round_span:
            # Each shard gets a disjoint fork of the round context plus a
            # private span buffer: concurrent workers never share an id
            # counter, and flushing the buffers in shard order keeps the
            # trace file deterministic.
            round_ctx = round_span.ctx
            buffers: dict[int, SpanBuffer] = {}
            futures = []
            for s, items in enumerate(shards):
                if not items:
                    continue
                service = self._shard_services[s]
                if round_ctx is not None:
                    buffers[s] = service.tracer = SpanBuffer()
                    service.trace_context = round_ctx.fork(f"s{s}")
                futures.append(
                    pool.submit(self._score_shard, service, items, self._round_shadow)
                )
            scored = [batch for future in futures for batch in future.result()]
            for s in sorted(buffers):
                buffers[s].flush_to(self.tracer)
        return sorted(scored, key=lambda batch: batch.index)

    def process(self, stream: Iterable[Any]) -> Iterator[BatchResult]:
        """Yield :class:`BatchResult`\\ s in global stream order.

        The stream is consumed lazily, one round at a time (bounded
        buffering); each result is yielded as soon as its tail finished.
        """
        batches = self._indexed_batches(stream)
        with self.timer, ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="repro-shard"
        ) as pool:
            while round_items := self._take_round(batches):
                for scored in self._score_round(pool, round_items):
                    yield self._finish_batch(scored)

    def process_batch(self, X: np.ndarray) -> BatchResult:
        """Serve one batch as a one-batch round, so it reaches its shard."""
        (result,) = self.process([X])
        return result

    # -- lifecycle ---------------------------------------------------------------
    def reload_detector(
        self, detector: Any, *, reset_rolling: bool = True, rebootstrap: bool = True
    ) -> None:
        """Swap the parent and every shard to ``detector``.

        Called from the tail (lifecycle swap or shadow verdict), after the
        round's scoring finished, so no worker is mid-batch and the whole
        next round scores with the new model epoch.
        """
        super().reload_detector(
            detector, reset_rolling=reset_rolling, rebootstrap=rebootstrap
        )
        for service in self._shard_services:
            service.reload_detector(
                detector, reset_rolling=reset_rolling, rebootstrap=rebootstrap
            )

    def _react_to_drift(self, scored: _ScoredBatch) -> None:
        """A shard's firing is a vote; the lifecycle reacts once on quorum."""
        if self.lifecycle is None or scored.model_epoch != self.epoch_:
            return  # no lifecycle, or scored by a superseded model: no vote
        self._drift_votes.add(self._shard_of[scored.index])
        if len(self._drift_votes) < self._votes_needed:
            return
        if self.lifecycle.shadow_pending():
            return  # the open trial's verdict clears the votes
        self._drift_votes.clear()
        super()._react_to_drift(scored)

    def _feed_shadow(self, scored: _ScoredBatch) -> Any:
        # Shadow scores belong to the trial open when the round started; a
        # trial that opened later in the round must not see them.
        if self.lifecycle.shadow_candidate is not self._round_shadow:
            return None
        verdict = super()._feed_shadow(scored)
        if verdict is not None:
            self._drift_votes.clear()
        return verdict

    # -- reporting ---------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Global metrics snapshot: parent + every shard, folded.

        Folding happens on every call (the per-shard registries keep
        accumulating), always in the same global order, so repeated
        snapshots never double-count and counter values are identical
        across sequential and thread runs of the same stream.
        """
        registries = [self.telemetry]
        registries.extend(service.telemetry for service in self._shard_services)
        return MetricsRegistry.fold(registries).snapshot()

    def report(self) -> ServiceReport:
        """Counters so far.

        ``total_time_s`` and the throughput are *wall-clock* over the whole
        fan-out (that is the operator-visible rate — per-batch scoring time
        sums across concurrent workers and would overstate the elapsed
        time); ``mean_batch_latency_s`` and the percentiles come from the
        per-batch latencies measured inside the workers.
        """
        report = super().report()
        report.throughput_samples_per_sec = (
            Timer(total=self.timer.total, n_calls=1).throughput(self.n_samples_)
            if self.n_samples_
            else 0.0
        )
        report.mean_batch_latency_s = (
            sum(service.timer.total for service in self._shard_services)
            / self.n_batches_
            if self.n_batches_
            else 0.0
        )
        return report

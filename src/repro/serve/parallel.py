"""Sharded, multi-worker stream serving on top of :class:`DetectionService`.

:class:`ShardedDetectionService` fans one stream of flow batches out to ``N``
workers, each running its own :class:`~repro.serve.service.DetectionService`
over a deterministic shard, and merges the per-shard outputs back into global
stream order.  The decomposition mirrors the tree/row-block parallelism of
:mod:`repro.ml` one layer up: batches are independent work items, so sharding
them changes *where* a batch is scored, never *what* its scores are.

Determinism contract
--------------------
* **Shard assignment is deterministic** — round-robin by global batch index
  (batch ``g`` goes to worker ``g % n_workers``) by default, or the opt-in
  ``shard_mode="greedy"`` least-loaded assignment, which depends only on the
  batch sizes seen so far, never on timing — either way a rerun shards
  identically.
* **Scores are bit-identical to the sequential service**: each batch is
  scored by the same micro-batched code path against the same model.
* **Alerts and drift events are re-serialized into global stream order**
  before they reach the sinks, carrying global batch/sample indices; with a
  fixed or ``"auto"`` threshold the merged alert stream is *identical* to the
  sequential service's.
* **Rolling thresholds are per shard**: each worker's rolling window sees
  only its own shard, so ``"rolling"`` thresholds track the same distribution
  but are not batch-for-batch identical to a single sequential window.  Use a
  fixed or ``"auto"`` threshold when exact sequential equivalence matters.

Coordinated hot-swap (epoch-tagged)
-----------------------------------
With a :class:`~repro.serve.lifecycle.LifecycleManager` (``lifecycle=``), the
sharded service closes the drift loop that per-shard monitors alone cannot:
each worker's monitor only *votes*.  The parent collects votes (one per
shard) while merging; when at least ``quorum * n_workers`` distinct shards
have voted since the last swap, the parent — at the next **round boundary**,
with every worker idle — refits once from its clean-window buffer, gates,
publishes, and swaps all workers to the new model.  Swaps only ever happen
between rounds, so within any round every shard scores with the same model
epoch (:attr:`BatchResult.model_epoch`).

When the lifecycle carries a shadow evaluator
(:class:`~repro.serve.lifecycle.shadow.ShadowEvaluator`), a vote-coordinated
refit does not swap immediately: every worker double-scores its shard's
batches with the shared candidate, the parent merges the candidate scores
back into **global order** and feeds one trial, and the verdict is applied at
a round boundary — the ``shadow_pass`` swap (or ``shadow_reject`` discard) is
global and round-aligned.

Fault tolerance
---------------
Rows quarantined by a shard (non-finite features) are announced by the
parent in global order, and all sinks are wrapped so one raising sink is
disabled rather than fatal (:mod:`repro.serve.faults`).

Workers
-------
Workers are threads sharing the fitted detector (scoring is read-only; NumPy
and the native kernels release the GIL, so native-kernel detectors scale
well).  Without the native kernels scoring is GIL-bound and threads lose to
the sequential service; serve with one worker there.  The stream is consumed
lazily in bounded *rounds* of ``n_workers * batches_per_round`` batches.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.serve.drift import DriftMonitor
from repro.serve.faults import QuarantinedRows, emit_resilient, wrap_sinks
from repro.serve.service import (
    Alert,
    BatchResult,
    DetectionService,
    DriftEvent,
    ServiceReport,
    _validate_stream_batch,
)
from repro.serve.telemetry.context import TraceContext
from repro.serve.telemetry.metrics import MetricsEvent, MetricsRegistry
from repro.serve.telemetry.tracing import SpanBuffer, SpanTracer, trace_span
from repro.utils.timing import Timer

__all__ = ["ShardedDetectionService"]

_SHARD_MODES = ("round_robin", "greedy")


class ShardedDetectionService:
    """Serve a stream through ``n_workers`` sharded detection services.

    Parameters
    ----------
    detector:
        Fitted object exposing ``score_samples``; shared across the worker
        threads.
    n_workers:
        Number of shards/workers (``1`` degenerates to a sequential service
        with merger overhead).
    mode:
        Worker backend.  Only ``"thread"`` (the default) is accepted and any
        other value raises ``ValueError``; the parameter stays so callers
        that pass ``mode="thread"`` keep working.
    shard_mode:
        ``"round_robin"`` (default) assigns batch ``g`` to worker
        ``g % n_workers``; the opt-in ``"greedy"`` assigns each batch to the
        worker with the fewest rows dispatched so far (ties break to the
        lowest index) — better balance for heterogeneous batch sizes, still
        fully deterministic, and the global-order merge is unchanged.
    threshold, rolling_window, rolling_quantile, min_rolling, micro_batch_size:
        Forwarded to every shard's :class:`DetectionService` (see there);
        rolling thresholds are evaluated per shard.
    drift_monitor_factory:
        Zero-argument callable building one fresh
        :class:`~repro.serve.drift.DriftMonitor` per shard.  Drift events are
        merged into global batch order; with a lifecycle they double as the
        shards' swap votes.  A shared mutable monitor instance cannot be
        accepted — shards would race on its windows — hence a factory.
    lifecycle:
        Optional :class:`~repro.serve.lifecycle.LifecycleManager`.  The
        *parent* owns it: merged clean rows feed its window buffer, and when
        the shard vote reaches ``quorum`` the parent refits once, publishes,
        and swaps every worker at the next round boundary (see module
        docstring).
    quorum:
        Fraction of workers (in ``(0, 1]``) whose monitors must have voted
        drift since the last swap before the parent coordinates one.
    sinks:
        Alert sinks fed by the *merger* (not the shards) so events arrive in
        global stream order exactly once.
    batches_per_round:
        The stream is consumed in rounds of
        ``n_workers * batches_per_round`` batches, bounding buffered memory
        while keeping every worker busy; coordinated swaps happen only at
        round boundaries.
    telemetry, tracer, metrics_every:
        Parent-side telemetry (see :class:`DetectionService`).  Each shard
        records into its *own* registry (pipeline + stage metrics, exactly
        like a sequential service); the parent records only parent-owned
        work (``round_submit``/``round_merge`` spans, sink emits).
        ``metrics_snapshot()`` folds parent + shards in shard order into one
        global snapshot whose counters match a sequential run on the same
        stream; ``metrics_every`` emits that folded snapshot as a
        :class:`~repro.serve.telemetry.MetricsEvent` every N merged batches.
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
        if metrics_every is not None and metrics_every < 1:
            raise ValueError("metrics_every must be at least 1 (or None)")
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
        self.detector = detector
        self.n_workers = n_workers
        self.shard_mode = shard_mode
        self.drift_monitor_factory = drift_monitor_factory
        self.lifecycle = lifecycle
        self.quorum = quorum
        self.sinks = wrap_sinks(sinks)
        self.batches_per_round = batches_per_round
        self.telemetry = MetricsRegistry() if telemetry is None else telemetry
        self.tracer = tracer
        if trace_context is None and tracer is not None:
            trace_context = TraceContext.root()
        self.trace_context = trace_context
        # Liveness/profiling hooks (see DetectionService): the watchdog beats
        # and the profiler samples once per *merged* batch, parent-side.
        self.heartbeat: Any = None
        self.profiler: Any = None
        self.metrics_every = metrics_every
        self._m_sink_disabled = self.telemetry.counter(
            "pipeline.sink_disabled", unit="sinks"
        )
        if lifecycle is not None and getattr(lifecycle, "telemetry", None) is None:
            lifecycle.telemetry = self.telemetry
            if getattr(lifecycle, "tracer", None) is None:
                lifecycle.tracer = tracer
        self._service_kwargs = dict(
            threshold=threshold,
            rolling_window=rolling_window,
            rolling_quantile=rolling_quantile,
            min_rolling=min_rolling,
            micro_batch_size=micro_batch_size,
        )
        # Validate the shared configuration eagerly (same errors, same
        # messages as the sequential service) instead of inside a worker.
        DetectionService(detector, **self._service_kwargs)

        self.timer = Timer()
        self.epoch_ = 0
        self.n_features_: int | None = None
        self.n_batches_ = 0
        self.n_samples_ = 0
        self.n_alerts_ = 0
        self.n_drift_events_ = 0
        self.n_swaps_ = 0
        self.n_quarantined_ = 0
        self.n_disabled_sinks_ = 0
        self.drift_batches_: list[int] = []
        self._latency_total = 0.0
        self._shard_services: list[DetectionService] | None = None
        self._worker_rows = [0] * n_workers  # greedy-assignment load account
        self._drift_votes: set[int] = set()  # shards voting since last swap

    # -- configuration -----------------------------------------------------------
    @property
    def _votes_needed(self) -> int:
        return max(1, math.ceil(self.quorum * self.n_workers - 1e-9))

    # -- stream plumbing ---------------------------------------------------------
    def _validate_width(self, X: Any) -> np.ndarray:
        """Parent-side feature contract, identical to the sequential service.

        Each shard only sees a subset of batches, so a mid-stream width
        change could otherwise slip past the shard that never receives it;
        validating at dispatch keeps the sequential error behavior.
        """
        X, self.n_features_ = _validate_stream_batch(X, self.n_features_)
        return X

    def _indexed_batches(self, stream: Iterable[Any]) -> Iterator[tuple[int, np.ndarray]]:
        for g, item in enumerate(stream, start=self.n_batches_):
            yield g, self._validate_width(DetectionService._batch_features(item))

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

    # -- merging -----------------------------------------------------------------
    def _emit(self, event: Any) -> None:
        if not self.sinks:
            return
        # Root-context placement, exactly like the sequential service's
        # _emit: shard workers are sinkless, so the parent's merge-time emits
        # are the only sink_emit spans of a sharded run — and they all parent
        # to the trace root.
        with trace_span(
            "sink_emit",
            metrics=self.telemetry,
            tracer=self.tracer,
            context=self.trace_context,
        ):
            disabled = len(emit_resilient(self.sinks, event))
        if disabled:
            self.n_disabled_sinks_ += disabled
            self._m_sink_disabled.inc(disabled)

    def _merge_round(
        self,
        per_batch: dict[int, BatchResult],
        batch_X: dict[int, np.ndarray],
        shard_of: dict[int, int],
        shadow_by_batch: dict[int, np.ndarray] | None = None,
    ) -> Iterator[BatchResult]:
        """Re-serialize shard results into global order; emit, count, vote.

        Per-shard shadow (candidate) scores are folded into the parent's
        trial here, batch by batch in global order, so the agreement verdict
        is a single global one — round-aligned, never per shard.
        """
        for g in sorted(per_batch):
            shard_result = per_batch[g]
            offset = self.n_samples_
            if shard_result.quarantined:
                # The shard service quarantined sink-lessly; the parent owns
                # the sinks, so announce here with the *global* batch index.
                self.n_quarantined_ += len(shard_result.quarantined)
                self._emit(
                    QuarantinedRows(
                        batch_index=g,
                        row_indices=shard_result.quarantined,
                        reason=shard_result.quarantine_reason or "quarantined",
                    )
                )
            alerts = tuple(
                Alert(
                    batch_index=g,
                    sample_index=offset + int(i),
                    score=float(shard_result.scores[i]),
                    threshold=shard_result.threshold,
                )
                for i in np.flatnonzero(shard_result.predictions)
            )
            for alert in alerts:
                self._emit(alert)
            drift = shard_result.drift
            if drift is not None and drift.drifted:
                self.n_drift_events_ += 1
                self.drift_batches_.append(g)
                self._emit(DriftEvent(batch_index=g, report=drift))
                self._drift_votes.add(shard_of[g])
            if self.lifecycle is not None and shard_result.scores.size:
                self.lifecycle.observe_batch(
                    batch_X[g], shard_result.scores, shard_result.threshold, drift
                )
                if shadow_by_batch is not None and g in shadow_by_batch:
                    self.lifecycle.observe_shadow(
                        shard_result.scores,
                        shard_result.threshold,
                        shadow_by_batch[g],
                    )
            self.n_batches_ += 1
            self.n_samples_ += shard_result.n_samples
            self.n_alerts_ += len(alerts)
            self._latency_total += shard_result.latency_s
            if self.heartbeat is not None:
                self.heartbeat.beat()
            if self.profiler is not None:
                self.profiler.sample("batch")
            if self.metrics_every and self.n_batches_ % self.metrics_every == 0:
                self._emit(MetricsEvent(batch_index=g, snapshot=self.metrics_snapshot()))
            yield BatchResult(
                index=g,
                scores=shard_result.scores,
                predictions=shard_result.predictions,
                threshold=shard_result.threshold,
                alerts=alerts,
                drift=drift,
                latency_s=shard_result.latency_s,
                model_epoch=shard_result.model_epoch,
                quarantined=shard_result.quarantined,
                quarantine_reason=shard_result.quarantine_reason,
            )

    # -- coordinated swap --------------------------------------------------------
    def _coordinate_swap(self) -> tuple[Any | None, bool]:
        """At a round boundary: refit/gate/publish once if quorum is reached.

        Returns ``(candidate, rebootstrap)``: the new model every worker must
        swap to (the caller reloads every shard service), or ``None``.
        Only a *refit* candidate rebootstraps the shard monitors' feature
        references — it was trained on the post-drift window; a fallback
        *reload* may be stale, so the references are kept and a persistent
        shift keeps voting (see ``DetectionService.reload_detector``).
        Votes reset after every coordination attempt — a rejected candidate
        should not be retried at every subsequent boundary; the shards'
        cooldowns will re-vote if the shift persists.
        """
        if self.lifecycle is None or len(self._drift_votes) < self._votes_needed:
            return None, False
        if getattr(self.lifecycle, "shadow_pending", lambda: False)():
            # A candidate is already under shadow; keep the votes — they are
            # cleared when the trial resolves (see _resolve_shadow), so a
            # pre-swap signal cannot immediately re-trigger a refit after it.
            return None, False
        self._drift_votes.clear()
        candidate, event = self.lifecycle.produce_candidate(self.detector)
        event = self._apply_swap(candidate, event)
        return candidate, event.action == "refit"

    def _apply_swap(self, candidate: Any | None, event: Any) -> Any:
        """Shared parent-side swap bookkeeping for vote and shadow decisions:
        adopt the candidate (if any), bump epoch/counters, record the event."""
        if candidate is not None:
            self.detector = candidate
            self.epoch_ += 1
            self.n_swaps_ += 1
            event = replace(event, swapped=True, epoch=self.epoch_)
        else:
            event = replace(event, epoch=self.epoch_)
        self.lifecycle.record(event)
        return event

    def _resolve_shadow(self) -> tuple[Any | None, bool]:
        """Apply a completed shadow verdict at a round boundary.

        The trial was fed merged batches in global order during
        :meth:`_merge_round`; resolving only between rounds keeps the swap
        round-aligned — within any round every shard scores with one model
        epoch, exactly like a coordinated vote swap.  Returns the candidate
        every worker must swap to on ``shadow_pass`` (rebootstrap: it was
        trained on the post-drift window), or ``None``.
        """
        if self.lifecycle is None:
            return None, False
        resolution = getattr(self.lifecycle, "shadow_resolution", lambda: None)()
        if resolution is None:
            return None, False
        self._drift_votes.clear()
        candidate, event = resolution
        self._apply_swap(candidate, event)
        return candidate, candidate is not None

    def _boundary_swap(self) -> tuple[Any | None, bool]:
        """Round-boundary lifecycle step: shadow verdict first, then votes.

        A resolved trial takes precedence (its candidate was produced by an
        earlier vote quorum); otherwise the accumulated votes may coordinate
        a fresh refit — which, with a shadow evaluator, *starts* a trial
        rather than returning a candidate to swap.
        """
        candidate, rebootstrap = self._resolve_shadow()
        if candidate is not None:
            return candidate, rebootstrap
        return self._coordinate_swap()

    def _shadow_detector(self) -> Any | None:
        """The candidate the next round must double-score, or ``None``."""
        if self.lifecycle is None:
            return None
        return getattr(self.lifecycle, "shadow_candidate", None)

    # -- shard workers -----------------------------------------------------------
    def _make_shard_service(self) -> DetectionService:
        monitor = (
            self.drift_monitor_factory()
            if self.drift_monitor_factory is not None
            else None
        )
        return DetectionService(
            self.detector,
            drift_monitor=monitor,
            # Shards inherit only the parent's *disabled* state; when enabled
            # each shard records into its own fresh registry (folded by
            # metrics_snapshot), never the parent's (threads would race).
            telemetry=None if self.telemetry.enabled else self.telemetry,
            **self._service_kwargs,
        )

    @staticmethod
    def _score_shard(
        service: DetectionService,
        items: list[tuple[int, np.ndarray]],
        shadow_detector: Any | None = None,
    ) -> list[tuple[int, BatchResult, np.ndarray | None]]:
        results = []
        for g, X in items:
            result = service.process_batch(X)
            shadow_scores = None
            if shadow_detector is not None and X.shape[0]:
                with trace_span(
                    "shadow_score",
                    metrics=service.telemetry,
                    tracer=service.tracer,
                    rows=int(X.shape[0]),
                    batch_index=g,
                    context=service.trace_context,
                ):
                    shadow_scores = service._score_micro_batched(
                        X, shadow_detector
                    )
            results.append((g, result, shadow_scores))
        return results

    def _process_threaded(self, stream: Iterable[Any]) -> Iterator[BatchResult]:
        if self._shard_services is None:
            self._shard_services = [
                self._make_shard_service() for _ in range(self.n_workers)
            ]
        batches = self._indexed_batches(stream)
        with ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="repro-shard"
        ) as pool:
            while True:
                round_items = self._take_round(batches)
                if not round_items:
                    return
                shard_of = self._assign_round(round_items)
                shards: list[list[tuple[int, np.ndarray]]] = [
                    [] for _ in range(self.n_workers)
                ]
                for g, X in round_items:
                    shards[shard_of[g]].append((g, X))
                shadow_detector = self._shadow_detector()
                per_batch: dict[int, BatchResult] = {}
                shadow_by_batch: dict[int, np.ndarray] = {}
                with trace_span(
                    "round_submit",
                    metrics=self.telemetry,
                    tracer=self.tracer,
                    rows=sum(int(X.shape[0]) for _, X in round_items),
                    context=self.trace_context,
                ) as round_span:
                    # Each shard gets a disjoint fork of the round context
                    # plus a private span buffer: concurrent workers never
                    # share an id counter, and flushing the buffers in shard
                    # order keeps the trace file deterministic.
                    round_ctx = round_span.ctx
                    buffers: dict[int, SpanBuffer] = {}
                    futures = []
                    for s, items in enumerate(shards):
                        if not items:
                            continue
                        service = self._shard_services[s]
                        if round_ctx is not None:
                            buffers[s] = SpanBuffer()
                            service.tracer = buffers[s]
                            service.trace_context = round_ctx.fork(f"s{s}")
                        futures.append(
                            pool.submit(
                                self._score_shard, service, items, shadow_detector
                            )
                        )
                    for future in futures:
                        self._collect(future.result(), per_batch, shadow_by_batch)
                    for s in sorted(buffers):
                        buffers[s].flush_to(self.tracer)
                with trace_span(
                    "round_merge",
                    metrics=self.telemetry,
                    tracer=self.tracer,
                    rows=sum(r.n_samples for r in per_batch.values()),
                    context=self.trace_context,
                ):
                    merged = list(
                        self._merge_round(
                            per_batch, dict(round_items), shard_of, shadow_by_batch
                        )
                    )
                yield from merged
                candidate, rebootstrap = self._boundary_swap()
                if candidate is not None:
                    # Every worker is idle between rounds: swap them all so
                    # the next round scores with one model epoch everywhere.
                    for service in self._shard_services:
                        service.reload_detector(candidate, rebootstrap=rebootstrap)

    @staticmethod
    def _collect(
        results: list[tuple[int, BatchResult, np.ndarray | None]],
        per_batch: dict[int, BatchResult],
        shadow_by_batch: dict[int, np.ndarray],
    ) -> None:
        for g, result, shadow_scores in results:
            per_batch[g] = result
            if shadow_scores is not None:
                shadow_by_batch[g] = shadow_scores

    # -- public API --------------------------------------------------------------
    def process(self, stream: Iterable[Any]) -> Iterator[BatchResult]:
        """Yield merged :class:`BatchResult`\\ s in global stream order.

        The stream is consumed lazily and yielded round by round (bounded
        buffering); coordinated swaps happen between rounds.
        """
        with self.timer:
            yield from self._process_threaded(stream)

    def run(self, stream: Iterable[Any], *, close_sinks: bool = True) -> ServiceReport:
        """Consume the whole stream and return the merged aggregate report."""
        try:
            for _ in self.process(stream):
                pass
        finally:
            if close_sinks:
                for sink in self.sinks:
                    sink.close()
        return self.report()

    def _registries(self) -> list[MetricsRegistry]:
        """All live registries in deterministic global fold order: the
        parent's first, then each shard's (by shard index)."""
        registries = [self.telemetry]
        if self._shard_services is not None:
            registries.extend(
                service.telemetry for service in self._shard_services
            )
        return registries

    def metrics_snapshot(self) -> dict:
        """Global metrics snapshot: parent + every shard, folded.

        Folding happens on every call (the per-shard registries keep
        accumulating), always in the same global order, so repeated
        snapshots never double-count and counter values are identical
        across sequential and thread runs of the same stream.
        """
        return MetricsRegistry.fold(self._registries()).snapshot()

    def report(self) -> ServiceReport:
        """Merged counters so far.

        ``total_time_s`` and the throughput are *wall-clock* over the whole
        fan-out (that is the operator-visible rate — per-batch scoring time
        sums across concurrent workers and would overstate the elapsed
        time); ``mean_batch_latency_s`` and the percentiles come from the
        per-batch latencies measured inside the workers (folded histogram).
        """
        rate_timer = Timer(total=self.timer.total, n_calls=1)
        throughput = rate_timer.throughput(self.n_samples_) if self.n_samples_ else 0.0
        folded = MetricsRegistry.fold(self._registries())
        hist = folded.histogram("pipeline.batch_seconds", unit="seconds")
        return ServiceReport(
            n_batches=self.n_batches_,
            n_samples=self.n_samples_,
            n_alerts=self.n_alerts_,
            n_drift_events=self.n_drift_events_,
            drift_batches=list(self.drift_batches_),
            total_time_s=self.timer.total,
            throughput_samples_per_sec=throughput,
            mean_batch_latency_s=(
                self._latency_total / self.n_batches_ if self.n_batches_ else 0.0
            ),
            batch_latency_p50_s=hist.percentile(0.50),
            batch_latency_p95_s=hist.percentile(0.95),
            batch_latency_p99_s=hist.percentile(0.99),
            n_quarantined=self.n_quarantined_,
            n_disabled_sinks=self.n_disabled_sinks_,
        )

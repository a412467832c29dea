"""Per-layer figures of a traced run, derived from its spans.

Every figure is divided by the number of traced reps, so it reads per
protocol run (``protocol``) or per stream pass (``serve_*``); set-up figures
read per set-up.  A layer a workload does not reach reports 0.
"""

from __future__ import annotations

import statistics
import threading

from workloads import SHARDED_WORKERS, Measured, percentile

#: (metric name, unit); the order is the order of the printed result.
PER_LAYER = [
    ("datasets.generate_s", "s"),
    ("core.losses.pseudo_label_s", "s/rep"),
    ("ml.kmeans.fit_calls", "count/rep"),
    ("ml.kmeans.fit_s", "s/rep"),
    ("core.cfe.fit_s", "s/rep"),
    ("nn.adam.steps", "count/rep"),
    ("nn.adam.step_s", "s/rep"),
    ("nn.linear.forward_s", "s/rep"),
    ("nn.linear.backward_s", "s/rep"),
    ("nn.activation_s", "s/rep"),
    ("nn.losses_s", "s/rep"),
    ("core.cfe.cl_encode_s", "s/rep"),
    ("core.model.score_s", "s/rep"),
    ("core.cfe.encode_s", "s/rep"),
    ("ml.pca.recon_s", "s/rep"),
    ("ml.scalers.transform_s", "s/rep"),
    ("experiments.protocol.eval_s", "s/rep"),
    ("core.model.score_rows_per_eval_row", "ratio"),
    ("ml.pca.fit_s", "s/rep"),
    ("serve.service.process_batch_s", "s/rep"),
    ("serve.service.self_s", "s/rep"),
    ("serve.service.score_calls", "count/rep"),
    ("serve.service.rows_per_score_call", "rows"),
    ("serve.drift.update_s", "s/rep"),
    ("serve.drift.firings", "count/rep"),
    ("serve.sinks.emit_s", "s/rep"),
    ("serve.sinks.events", "count/rep"),
    ("serve.sinks.bytes", "B/rep"),
    ("serve.lifecycle.handle_drift_s", "s/rep"),
    ("serve.lifecycle.refit_s", "s/rep"),
    ("serve.lifecycle.clone_s", "s/rep"),
    ("serve.lifecycle.gate_s", "s/rep"),
    ("serve.lifecycle.swaps", "count/rep"),
    ("serve.lifecycle.swap_ratio", "ratio"),
    ("serve.lifecycle.stall_max_ms", "ms"),
    ("serve.snapshot.save_s", "s/rep"),
    ("serve.snapshot.load_s", "s/rep"),
    ("serve.snapshot.bytes", "B/rep"),
    ("serve.parallel.speedup_vs_sequential", "ratio"),
    ("serve.parallel.worker_busy_share", "share"),
    ("ml.native.forest_sum_calls", "count/rep"),
    ("ml.native.forest_sum_s", "s/rep"),
    ("ml.native.rows_per_call", "rows"),
    ("ml.parallel.block_calls", "count/rep"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_share", "share"),
]

_SCORE_SPANS = ("core.model.score", "novelty.iforest.score")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(measured: Measured, sequential_s: list[float] | None = None) -> dict:
    """Every per-layer figure of a traced run, as ``{name: (value, unit)}``."""
    tracer = measured.tracer
    reps = measured.traced
    n = len(reps)
    totals = tracer.totals()

    def total(name: str) -> float:
        return totals[name]["total_s"] if name in totals else 0.0

    def self_time(name: str) -> float:
        return totals[name]["self_s"] if name in totals else 0.0

    def calls(name: str) -> float:
        return totals[name]["calls"] if name in totals else 0

    def rows(name: str) -> float:
        return totals[name]["rows"] if name in totals else 0

    # The service's own calls are its scoring, drift, sink and lifecycle
    # stages; process_batch's self time is what remains of it without them.
    process = [s for s in tracer.spans if s.name == "serve.service.process_batch"]
    service_score = [
        s for s in tracer.spans
        if s.name in _SCORE_SPANS
        and s.parent is not None and s.parent.name == "serve.service.process_batch"
    ]

    protocol_score_rows = sum(
        s.rows for s in tracer.spans
        if s.name == "core.model.score" and _under(s, "experiments.protocol.run")
    )
    # Everything the protocol run spends outside setup and training is evaluation.
    protocol_train_s = sum(
        s.end - s.start for s in tracer.spans
        if s.name in ("core.model.setup", "core.model.fit_experience")
        and s.parent is not None and s.parent.name == "experiments.protocol.run"
    )
    eval_rows = sum(r.extra.get("eval_rows", 0) for r in reps)

    firings = tracer.counts.get("serve.drift.firings", 0)
    swaps = calls("serve.service.swap")
    handle_drift = [s for s in tracer.spans if s.name == "serve.lifecycle.handle_drift"]

    main = threading.get_ident()
    worker_busy = sum(s.end - s.start for s in process if s.thread != main)
    busy_traced = sum(r.busy_s for r in reps)
    busy_untraced = sum(r.busy_s for r in measured.untraced[:n])

    gen_late = [x for r in measured.untraced for x in r.extra.get("gen_late_s", [])]
    sharded_s = [r.busy_s for r in measured.untraced]

    values = {
        "datasets.generate_s": _ratio(
            measured.setup_tracer.totals()["datasets.generate"]["total_s"],
            len(measured.setup_s),
        ),
        "core.losses.pseudo_label_s": total("core.losses.pseudo_label") / n,
        "ml.kmeans.fit_calls": calls("ml.kmeans.fit") / n,
        "ml.kmeans.fit_s": total("ml.kmeans.fit") / n,
        "core.cfe.fit_s": total("core.cfe.fit") / n,
        "nn.adam.steps": calls("nn.adam.step") / n,
        "nn.adam.step_s": total("nn.adam.step") / n,
        "nn.linear.forward_s": total("nn.linear.forward") / n,
        "nn.linear.backward_s": total("nn.linear.backward") / n,
        "nn.activation_s": total("nn.activation") / n,
        "nn.losses_s": total("nn.losses") / n,
        "core.cfe.cl_encode_s": total("core.cfe.cl_encode") / n,
        "core.model.score_s": total("core.model.score") / n,
        "core.cfe.encode_s": total("core.cfe.encode") / n,
        "ml.pca.recon_s": total("ml.pca.recon") / n,
        "ml.scalers.transform_s": total("ml.scalers.transform") / n,
        "experiments.protocol.eval_s": (
            total("experiments.protocol.run") - protocol_train_s
        ) / n,
        "core.model.score_rows_per_eval_row": _ratio(protocol_score_rows, eval_rows),
        "ml.pca.fit_s": total("ml.pca.fit") / n,
        "serve.service.process_batch_s": total("serve.service.process_batch") / n,
        "serve.service.self_s": self_time("serve.service.process_batch") / n,
        "serve.service.score_calls": len(service_score) / n,
        "serve.service.rows_per_score_call": _ratio(
            sum(s.rows for s in service_score), len(service_score)
        ),
        "serve.drift.update_s": total("serve.drift.update") / n,
        "serve.drift.firings": firings / n,
        "serve.sinks.emit_s": total("serve.sinks.emit") / n,
        "serve.sinks.events": calls("serve.sinks.emit") / n,
        "serve.sinks.bytes": sum(r.extra.get("sink_bytes", 0) for r in reps) / n,
        "serve.lifecycle.handle_drift_s": total("serve.lifecycle.handle_drift") / n,
        "serve.lifecycle.refit_s": total("serve.lifecycle.refit") / n,
        "serve.lifecycle.clone_s": total("serve.lifecycle.clone") / n,
        "serve.lifecycle.gate_s": total("serve.lifecycle.gate") / n,
        "serve.lifecycle.swaps": swaps / n,
        "serve.lifecycle.swap_ratio": _ratio(swaps, firings) if handle_drift else 0.0,
        "serve.lifecycle.stall_max_ms": 1000.0 * max(
            (s.end - s.start for s in handle_drift), default=0.0
        ),
        "serve.snapshot.save_s": total("serve.snapshot.save") / n,
        "serve.snapshot.load_s": total("serve.snapshot.load") / n,
        "serve.snapshot.bytes": tracer.counts.get("serve.snapshot.bytes", 0) / n,
        "serve.parallel.speedup_vs_sequential": (
            _ratio(statistics.median(sequential_s), statistics.median(sharded_s))
            if sequential_s else 0.0
        ),
        "serve.parallel.worker_busy_share": (
            _ratio(worker_busy, SHARDED_WORKERS * busy_traced) if sequential_s else 0.0
        ),
        "ml.native.forest_sum_calls": calls("ml.native.forest_sum") / n,
        "ml.native.forest_sum_s": total("ml.native.forest_sum") / n,
        "ml.native.rows_per_call": _ratio(
            rows("ml.native.forest_sum"), calls("ml.native.forest_sum")
        ),
        "ml.parallel.block_calls": tracer.counts.get("ml.parallel.block_calls", 0) / n,
        "loadgen.late_p99_ms": 1000.0 * percentile(gen_late, 99)[0] if gen_late else 0.0,
        "loadgen.backlog_max": float(
            max((r.extra.get("backlog_max", 0) for r in measured.untraced), default=0)
        ),
        "trace.overhead_share": _ratio(busy_traced, busy_untraced) - 1.0,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def _under(span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False

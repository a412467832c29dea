"""In-memory span tracer for the benchmark's traced runs.

The tracer records spans from the benchmark's side: it wraps public functions
and methods of the ``repro`` modules for the duration of a ``with`` block and
restores the originals afterwards.  Nothing in the program itself is changed.

Each span holds its name, start, end, the span that called it (per thread),
the batch id the workload loop set, the thread, and a row count where the
wrapped call takes a batch.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import repro.core.model
import repro.experiments.protocol
import repro.ml.flat_tree
import repro.ml.native
import repro.serve.lifecycle.policy
import repro.serve.snapshot
from repro.core.cfe import ContinualFeatureExtractor
from repro.core.model import CNDIDS
from repro.datasets.generator import SyntheticIDSGenerator
from repro.ml.kmeans import KMeans
from repro.ml.pca import PCA
from repro.ml.scalers import StandardScaler
from repro.nn.layers import Linear, ReLU
from repro.nn.losses import MSELoss, TripletMarginLoss
from repro.nn.models import Autoencoder
from repro.nn.optim import Adam
from repro.novelty.iforest import IsolationForest
from repro.serve.drift import DriftMonitor
from repro.serve.lifecycle.gate import QualityGate
from repro.serve.lifecycle.manager import LifecycleManager
from repro.serve.lifecycle.policy import ContinualRefit
from repro.serve.service import DetectionService
from repro.serve.sinks import JsonlSink


class Span:
    __slots__ = ("name", "start", "end", "parent", "batch", "thread", "rows")

    def __init__(self, name, parent, batch, thread, rows):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.batch = batch
        self.thread = thread
        self.rows = rows


def _rows(value: Any) -> int:
    shape = getattr(value, "shape", None)
    return int(shape[0]) if shape else 0


def _dir_bytes(path: Any) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _cl_encode_name(args: tuple, parent: Span | None) -> str:
    # Frozen past snapshots are in eval mode while the CFE trains; their
    # encodings inside a CFE fit are the continual-learning loss term.
    if parent is not None and parent.name == "core.cfe.fit" and not args[0].training:
        return "core.cfe.cl_encode"
    return "nn.autoencoder.encode"


# (owner, attribute, span name, index of the batch argument or None)
_TARGETS: list[tuple[Any, str, Any, int | None]] = [
    (SyntheticIDSGenerator, "generate", "datasets.generate", None),
    (repro.experiments.protocol, "run_continual_method", "experiments.protocol.run", None),
    (CNDIDS, "setup", "core.model.setup", None),
    (CNDIDS, "fit_experience", "core.model.fit_experience", 1),
    (CNDIDS, "predict", "core.model.predict", 1),
    (CNDIDS, "score_samples", "core.model.score", 1),
    (repro.core.model, "compute_pseudo_labels", "core.losses.pseudo_label", 0),
    (KMeans, "fit", "ml.kmeans.fit", 1),
    (ContinualFeatureExtractor, "fit_experience", "core.cfe.fit", 1),
    (ContinualFeatureExtractor, "encode", "core.cfe.encode", 1),
    (Autoencoder, "encode", _cl_encode_name, 1),
    (Adam, "step", "nn.adam.step", None),
    (Linear, "forward", "nn.linear.forward", 1),
    (Linear, "backward", "nn.linear.backward", 1),
    (ReLU, "forward", "nn.activation", 1),
    (ReLU, "backward", "nn.activation", 1),
    (MSELoss, "__call__", "nn.losses", 1),
    (TripletMarginLoss, "__call__", "nn.losses", 1),
    (PCA, "fit", "ml.pca.fit", 1),
    (PCA, "reconstruction_error", "ml.pca.recon", 1),
    (StandardScaler, "transform", "ml.scalers.transform", 1),
    (DetectionService, "process_batch", "serve.service.process_batch", 1),
    (DetectionService, "reload_detector", "serve.service.swap", None),
    (DriftMonitor, "update", "serve.drift.update", 1),
    (JsonlSink, "emit", "serve.sinks.emit", None),
    (LifecycleManager, "observe_batch", "serve.lifecycle.observe", 1),
    (LifecycleManager, "handle_drift", "serve.lifecycle.handle_drift", None),
    (ContinualRefit, "refit", "serve.lifecycle.refit", 2),
    (repro.serve.lifecycle.policy, "clone_model", "serve.lifecycle.clone", None),
    (QualityGate, "evaluate", "serve.lifecycle.gate", 2),
    (repro.serve.snapshot, "save_snapshot", "serve.snapshot.save", None),
    (repro.serve.snapshot, "load_snapshot", "serve.snapshot.load", None),
    (IsolationForest, "score_samples", "novelty.iforest.score", 1),
    (repro.ml.native, "forest_sum", "ml.native.forest_sum", 0),
    (repro.ml.flat_tree, "run_row_blocks", "ml.parallel.run_row_blocks", None),
]


class Tracer:
    """Collect spans around calls into the ``repro`` modules while active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: Batch id stamped on every span; the workload loop sets it.
        self.batch: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- patching ----------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for owner, attr, name, rows_at in _TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, rows_at))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, name: Any, rows_at: int | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            span_name = name(args, parent) if callable(name) else name
            rows = _rows(args[rows_at]) if rows_at is not None and len(args) > rows_at else 0
            span = Span(span_name, parent, tracer.batch, threading.get_ident(), rows)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            tracer._observe(span_name, result)
            return result

        return traced

    def _observe(self, name: str, result: Any) -> None:
        # Shard worker threads update the counters concurrently.
        if name == "serve.drift.update" and result.drifted:
            key, amount = "serve.drift.firings", 1
        elif name == "serve.snapshot.save":
            key, amount = "serve.snapshot.bytes", _dir_bytes(result)
        elif name == "ml.parallel.run_row_blocks" and result:
            key, amount = "ml.parallel.block_calls", 1
        else:
            return
        with self._lock:
            self.counts[key] += amount

    # -- derived figures -----------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, rows, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of the spans it
        called on the same thread (spans on one thread nest, so they never
        overlap).
        """
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[id(span.parent)] += span.end - span.start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            entry = out[span.name]
            duration = span.end - span.start
            entry["calls"] += 1
            entry["rows"] += span.rows
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(id(span), 0.0)
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (ids in completion order)."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": ids.get(id(span.parent)) if span.parent is not None else None,
                    "batch": span.batch,
                    "thread": span.thread,
                    "rows": span.rows,
                }) + "\n")

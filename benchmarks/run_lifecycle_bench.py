"""Lifecycle throughput benchmark: refit latency and hot-swap stall.

An online-refit deployment pays two new costs on top of scoring: the time to
train a candidate on the clean window (refit latency — happens at most once
per drift episode) and the time the serving loop stalls while models swap
(a sharded service swaps the parent and every shard from its per-batch
tail, after the round's scoring finished).  This benchmark measures both
and records them under the ``"lifecycle"`` key of ``BENCH_inference.json`` so
``check_bench_trend.py`` fails the build when either regresses, exactly as
it does for single-core inference (``results``) and the parallel layer
(``parallel``):

* ``FullRefit.refit[iforest]`` — candidate training on a ``--window``-row
  clean buffer, reported as window rows per second (plus ``refit_latency_s``);
* ``DetectionService.reload_detector[iforest]`` — the sequential in-process
  swap (rolling/drift state reset included), reported as swaps per second
  (plus ``swap_stall_s``);
* ``coordinated_swap[thread,w=N]`` — the same swap on a
  :class:`ShardedDetectionService` (the inherited
  :meth:`~DetectionService.reload_detector`: its workers hold no model state).

A second, separately trend-checked ``"shadow"`` section records what shadow
evaluation (:mod:`repro.serve.lifecycle.shadow`) costs while a trial runs —
the serving loop scores every batch twice:

* ``single_score[iforest]`` — the plain micro-batched scoring baseline;
* ``shadow_round[iforest]`` — live + candidate double-scoring plus the
  trial's agreement-statistics update, i.e. one full shadow round (the
  ``overhead_vs_single`` field makes the ratio explicit).

Usage::

    PYTHONPATH=src python benchmarks/run_lifecycle_bench.py \
        [--window 4096] [--n-features 16] [--workers 4] \
        [--output BENCH_inference.json]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Callable

import numpy as np

from repro._version import __version__
from repro.novelty import IsolationForest
from repro.serve.lifecycle import FullRefit, ShadowEvaluator, WindowBuffer
from repro.serve.parallel import ShardedDetectionService
from repro.serve.service import DetectionService
from repro.utils.timing import Timer

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_inference.json"


def _best_time(
    fn: Callable[[], object], n_repeats: int, *, n_inner: int = 1
) -> float:
    """Best per-call seconds over ``n_repeats`` timed loops of ``n_inner`` calls.

    Cheap operations (an in-process swap takes microseconds) are timed in an
    inner loop so the recorded rate averages out clock-resolution noise —
    the trend check would otherwise flag pure jitter as a regression.
    """
    best = float("inf")
    for _ in range(max(n_repeats, 1)):
        timer = Timer()
        with timer:
            for _ in range(n_inner):
                fn()
        best = min(best, timer.total / n_inner)
    return max(best, 1e-9)


def run_bench(
    *,
    window: int = 4096,
    n_features: int = 16,
    n_workers: int = 4,
    n_repeats: int = 3,
    seed: int = 0,
) -> dict[str, object]:
    """Run the lifecycle cost suite; returns the ``"lifecycle"`` payload."""
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(2000, n_features))
    detector = IsolationForest(
        n_estimators=50, max_samples=256, random_state=seed
    ).fit(train)
    buffer = WindowBuffer(window)
    buffer.add(rng.normal(size=(window, n_features)))
    clean_window = buffer.values()
    policy = FullRefit(
        lambda: IsolationForest(n_estimators=50, max_samples=256, random_state=seed)
    )
    candidate = policy.refit(detector, clean_window)

    results: dict[str, object] = {}

    refit_s = _best_time(lambda: policy.refit(detector, clean_window), n_repeats)
    results["FullRefit.refit[iforest]"] = {
        "samples_per_sec": window / refit_s,
        "refit_latency_s": refit_s,
    }

    service = DetectionService(detector, threshold="auto")
    swap_s = _best_time(
        lambda: service.reload_detector(candidate), n_repeats, n_inner=100
    )
    results["DetectionService.reload_detector[iforest]"] = {
        "samples_per_sec": 1.0 / swap_s,
        "swap_stall_s": swap_s,
    }

    sharded = ShardedDetectionService(
        detector, n_workers=n_workers, mode="thread", threshold="auto"
    )
    thread_swap_s = _best_time(
        lambda: sharded.reload_detector(candidate), n_repeats, n_inner=100
    )
    results[f"coordinated_swap[thread,w={n_workers}]"] = {
        "samples_per_sec": 1.0 / thread_swap_s,
        "swap_stall_s": thread_swap_s,
    }

    return {
        "benchmark": "lifecycle_costs",
        "version": __version__,
        "config": {
            "window": window,
            "n_features": n_features,
            "n_workers": n_workers,
            "n_repeats": n_repeats,
            "seed": seed,
        },
        "results": results,
    }


def run_shadow_bench(
    *,
    batch: int = 1024,
    n_features: int = 16,
    n_repeats: int = 3,
    seed: int = 0,
) -> dict[str, object]:
    """Measure the per-round cost of shadow evaluation (double-scoring).

    Returns the ``"shadow"`` payload for ``BENCH_inference.json``.
    """
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(2000, n_features))
    live = IsolationForest(
        n_estimators=50, max_samples=256, random_state=seed
    ).fit(train)
    candidate = IsolationForest(
        n_estimators=50, max_samples=256, random_state=seed + 1
    ).fit(train)
    service = DetectionService(live, threshold="auto")
    X = rng.normal(size=(batch, n_features))
    threshold = float(live.threshold_)
    # A round budget far above the timed repeats keeps the trial open for
    # every observation, so the stats update is measured on a live trial.
    trial = ShadowEvaluator(rounds=10**9, min_samples=2).begin(candidate)

    single_s = _best_time(lambda: service._score_micro_batched(X), n_repeats)

    def _shadow_round() -> None:
        live_scores, _ = service._score_micro_batched(X)
        candidate_scores, _ = service._score_micro_batched(X, candidate)
        trial.observe(live_scores, threshold, candidate_scores)

    double_s = _best_time(_shadow_round, n_repeats)
    results: dict[str, object] = {
        "single_score[iforest]": {
            "samples_per_sec": batch / single_s,
            "round_latency_s": single_s,
        },
        "shadow_round[iforest]": {
            "samples_per_sec": batch / double_s,
            "round_latency_s": double_s,
            "overhead_vs_single": double_s / single_s,
        },
    }
    return {
        "benchmark": "shadow_overhead",
        "version": __version__,
        "config": {
            "batch": batch,
            "n_features": n_features,
            "n_repeats": n_repeats,
            "seed": seed,
        },
        "results": results,
    }


def write_report(
    payload: dict[str, object],
    output: Path = DEFAULT_OUTPUT,
    *,
    section: str = "lifecycle",
) -> Path:
    """Merge ``payload`` into one section of the benchmark file.

    All other sections (``results``, ``parallel``, and whichever of
    ``lifecycle``/``shadow`` is not being written) are left untouched, so
    every benchmark can be refreshed independently.
    """
    output = Path(output)
    document: dict[str, object] = {}
    if output.exists():
        document = json.loads(output.read_text())
    document[section] = payload
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return output


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--window", type=int, default=4096)
    parser.add_argument("--n-features", type=int, default=16)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--n-repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    if min(args.window, args.n_features, args.workers, args.n_repeats) < 1:
        parser.error("--window, --n-features, --workers, --n-repeats must be >= 1")
    payload = run_bench(
        window=args.window,
        n_features=args.n_features,
        n_workers=args.workers,
        n_repeats=args.n_repeats,
        seed=args.seed,
    )
    path = write_report(payload, args.output)
    shadow_payload = run_shadow_bench(
        n_features=args.n_features, n_repeats=args.n_repeats, seed=args.seed
    )
    write_report(shadow_payload, args.output, section="shadow")
    for name, entry in payload["results"].items():
        line = f"{name:50s} {entry['samples_per_sec']:>12.0f} /s"
        if "refit_latency_s" in entry:
            line += f"  (refit {1e3 * entry['refit_latency_s']:.1f} ms)"
        if "swap_stall_s" in entry:
            line += f"  (stall {1e3 * entry['swap_stall_s']:.2f} ms)"
        print(line)
    for name, entry in shadow_payload["results"].items():
        line = f"shadow:{name:43s} {entry['samples_per_sec']:>12.0f} /s"
        if "overhead_vs_single" in entry:
            line += f"  ({entry['overhead_vs_single']:.2f}x single-score)"
        print(line)
    print(f"[lifecycle + shadow sections written to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

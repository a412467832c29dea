"""CND-IDS end-to-end benchmark: Algorithm-1 training to serving under drift.

Usage, from the repository root::

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 12 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``protocol`` -- CND-IDS through ``run_continual_method`` on WUSTL-IIoT,
* ``serve_steady`` -- closed-loop ``DetectionService`` scoring, no drift,
* ``serve_refit`` -- open-loop drifting stream with online ``ContinualRefit``,
* ``serve_sharded`` -- ``ShardedDetectionService`` over an IsolationForest.

With ``--trace 0`` the run prints every end-to-end metric (the timed ones at
a reference host speed, see ``workloads.py``); with ``--trace 1``
it prints every per-layer metric and writes its spans to
``perfbench/out/trace-<workload>-<seed>.jsonl``.  The last line of standard
output is the result object; the line before it carries the sample counts,
the determinism guards and the host fingerprint, which are also written to
``perfbench/out/result-<workload>-<seed>-<trace>.json``.

Counts that must repeat for the same seed are kept in
``perfbench/out/guards-<workload>-<seed>.json``; a later run whose counts
differ reports the difference as failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("protocol", "serve_steady", "serve_refit", "serve_sharded")


def host_fingerprint() -> dict:
    import numpy as np

    from repro.ml import native
    from repro.ml.parallel import get_num_threads

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "native_kernel": native.available(),
        "openmp": native.openmp_enabled(),
        "REPRO_NUM_THREADS": os.environ.get("REPRO_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "repro_threads": get_num_threads(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
    }


def check_guards(workload: str, seed: int, guards: dict) -> int:
    """Compare with the counts stored by earlier runs; return the mismatches."""
    path = OUT / f"guards-{workload}-{seed}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    mismatches = sorted(k for k, v in guards.items() if k in stored and stored[k] != v)
    for key in mismatches:
        print(f"determinism guard {key}: {guards[key]} != {stored[key]}", file=sys.stderr)
    path.write_text(json.dumps({**guards, **stored}, indent=1, sort_keys=True))
    return len(mismatches)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # BLAS runs on one thread: on a shared 2-core host a second BLAS thread
    # per product mostly measures the scheduler.  Set before numpy loads.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the repro package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import layers
    import workloads

    # Temporary files (model clones, the kernel build) stay inside the checkout.
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    run = getattr(workloads, f"run_{args.workload}")
    outcome, measured = run(args.seed, args.seconds, bool(args.trace), OUT)
    if args.trace:
        sequential_s = None
        if args.workload == "serve_sharded":
            sequential_s = [
                workloads.sequential_scores(measured.state)[1]
                for _ in measured.untraced
            ]
        metrics = layers.layer_metrics(measured, sequential_s)
        measured.tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = outcome.metrics

    failed = outcome.failed + check_guards(args.workload, args.seed, outcome.guards)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": outcome.samples,
        "guards": outcome.guards,
        "host": host_fingerprint(),
    }
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1)
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Static-analysis benchmark: what a full reprolint pass costs.

``repro lint`` runs in the tier-1 gate, so its wall-clock is
developer-facing latency: a linter that takes seconds per run gets skipped.
This benchmark pins it under the ``"analysis"`` key of
``BENCH_inference.json`` and ``check_bench_trend.py`` fails the build when
any entry regresses:

* ``lint_full[cold]`` — the full single-pass lint (parse, then all ten
  rules) over the real ``src/repro`` tree, in files per second;
* ``parse[tree]`` — bare ``ast`` parsing of every module, in files per
  second (the floor any lint run pays before rules see a node).

Usage::

    PYTHONPATH=src python benchmarks/run_analysis_bench.py \
        [--tree src/repro] [--n-repeats 3] [--output BENCH_inference.json]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro._version import __version__
from repro.analysis import parse_module, run_lint
from run_lifecycle_bench import DEFAULT_OUTPUT, _best_time, write_report

__all__ = ["run_bench", "write_report", "DEFAULT_OUTPUT", "main"]

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TREE = REPO_ROOT / "src" / "repro"


def run_bench(
    *,
    tree: Path = DEFAULT_TREE,
    n_repeats: int = 3,
) -> dict[str, object]:
    """Run the static-analysis suite; returns the ``"analysis"`` payload."""
    tree = Path(tree)
    paths = [tree]

    # One probe run supplies the file count.
    n_files = run_lint(paths).context.n_files

    results: dict[str, object] = {}

    cold_s = _best_time(lambda: run_lint(paths), n_repeats)
    results["lint_full[cold]"] = {
        "samples_per_sec": n_files / cold_s,
        "wall_s": cold_s,
        "n_files": n_files,
    }

    sources = [
        (path.read_text(encoding="utf-8"), path.as_posix())
        for path in sorted(tree.rglob("*.py"))
    ]

    def _parse_all() -> None:
        for source, display in sources:
            parse_module(source, display)

    parse_s = _best_time(_parse_all, n_repeats)
    results["parse[tree]"] = {
        "samples_per_sec": len(sources) / parse_s,
        "wall_s": parse_s,
    }

    return {
        "benchmark": "static_analysis",
        "version": __version__,
        "config": {
            "tree": str(tree),
            "n_files": n_files,
            "n_repeats": n_repeats,
        },
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=DEFAULT_TREE)
    parser.add_argument("--n-repeats", type=int, default=3)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    if args.n_repeats < 1:
        parser.error("--n-repeats must be >= 1")
    if not args.tree.is_dir():
        parser.error(f"--tree {args.tree} is not a directory")
    payload = run_bench(tree=args.tree, n_repeats=args.n_repeats)
    path = write_report(payload, args.output, section="analysis")
    for name, entry in payload["results"].items():
        line = f"{name:28s} {entry['samples_per_sec']:>12.0f} files/s"
        if "wall_s" in entry:
            line += f"  ({1e3 * entry['wall_s']:.1f} ms)"
        print(line)
    print(f"[analysis section written to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Flatten a benchmark results directory into one trend-friendly JSON doc.

The nightly workflow runs the benchmark suite at larger-than-smoke shapes
and uploads its tables as build artifacts.  Text tables are great for
humans and for the regression gate, but trend tooling wants one flat
document per run — this script reads every ``*.txt`` table and ``*.json``
metric document in a results directory (reusing the regression gate's
parsers, so the two can never disagree about a table's metrics) and
emits::

    {
      "commit": "<sha or null>",
      "run": "<workflow run id or null>",
      "tables": {"shard_scaling": {"requests_per_sec": ..., ...}, ...}
    }

Commit and run id come from the standard GitHub Actions environment when
present; append each nightly's document to a series and every gated
metric becomes a plottable time series.

Usage::

    python benchmarks/collect_trends.py \
        --results benchmarks/out --out trends.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from check_regression import metrics_from_json, metrics_from_table

__all__ = ["collect", "main"]


def collect(results_dir: Path) -> dict:
    """All gated metrics of every table/document under ``results_dir``."""
    tables: dict[str, dict[str, float]] = {}
    for path in sorted(results_dir.glob("*.txt")):
        metrics = metrics_from_table(path.read_text())
        if metrics:
            tables[path.stem] = metrics
    for path in sorted(results_dir.glob("*.json")):
        metrics = metrics_from_json(path.read_text())
        if metrics:
            tables.setdefault(path.stem, {}).update(metrics)
    return {
        "commit": os.environ.get("GITHUB_SHA"),
        "run": os.environ.get("GITHUB_RUN_ID"),
        "tables": tables,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path, required=True,
                        help="benchmark results directory to flatten")
    parser.add_argument("--out", type=Path, default=None,
                        help="output file (default: stdout)")
    args = parser.parse_args(argv)
    if not args.results.is_dir():
        print(f"error: {args.results} is not a directory", file=sys.stderr)
        return 2
    document = json.dumps(collect(args.results), indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(document)
    else:
        args.out.write_text(document)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""CI benchmark-regression gate: compare metric tables against a baseline.

The benchmark suite writes aligned text tables to ``benchmarks/out/`` (see
``benchmarks/conftest.py``; the committed baselines live in
``benchmarks/results/``), and the measurement CLIs
(``serve-bench`` / ``ingest-bench`` / ``loadgen`` with ``--json``) emit an
equivalent JSON document — ``{"name", ..., "metrics": {...}}``.  This
script reads every baseline file (``*.txt`` tables and ``*.json``
documents), extracts its gated metrics, finds the same file in the
*current* directory, and compares metric by metric:

* **throughput columns** (``pairs_per_sec``, ``accounts_per_sec``,
  ``requests_per_sec``) gate on the table's best (maximum) value — higher
  is better, and a current value more than ``--threshold`` *below*
  baseline fails;
* **latency columns** (``p99_ms``) gate on the table's best (minimum)
  value — lower is better, and a current value more than ``--threshold``
  *above* baseline fails.

Best-of-table is compared because the tables sweep configurations (batch
sizes, worker counts, dispatch modes) and capacity planning cares about
the best configuration; a generous default threshold (30%) absorbs
runner-speed jitter at smoke sizes while still catching real slowdowns.

Usage::

    python benchmarks/check_regression.py \
        --baseline benchmarks/results --current benchmarks/out \
        [--threshold 0.30]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Comparison",
    "LATENCY_COLUMNS",
    "METRIC_COLUMNS",
    "THROUGHPUT_COLUMNS",
    "best_pairs_per_sec",
    "best_throughput",
    "compare_dirs",
    "main",
    "metrics_from_json",
    "metrics_from_table",
    "new_metric_files",
]

#: Gated throughput columns (best = max, higher is better).
THROUGHPUT_COLUMNS = ("pairs_per_sec", "accounts_per_sec", "requests_per_sec")
#: Gated latency columns (best = min, lower is better).
LATENCY_COLUMNS = ("p99_ms",)
#: Backwards-compatible alias: the original throughput-only tuple.
METRIC_COLUMNS = THROUGHPUT_COLUMNS


def parse_table(text: str) -> tuple[list[str], list[list[str]]]:
    """Split a ``write_table`` text table into (headers, rows).

    The format is: title line, ``=`` rule, header line, ``-`` rule, data
    rows; columns are aligned with 2+ spaces between them.
    """
    lines = [line.rstrip() for line in text.splitlines() if line.strip()]
    if len(lines) < 4 or not set(lines[1]) <= {"="} or "-" not in lines[3]:
        raise ValueError("not a benchmark results table")
    headers = lines[2].split()
    rows = [line.split() for line in lines[4:]]
    return headers, rows


def _column_values(
    headers: list[str], rows: list[list[str]], column_name: str
) -> list[float]:
    column = headers.index(column_name)
    values = []
    for row in rows:
        if len(row) <= column:
            continue
        try:
            values.append(float(row[column]))
        except ValueError:
            continue
    return values


def metrics_from_table(text: str) -> dict[str, float]:
    """Every gated metric a text table carries: best-of-column per metric."""
    try:
        headers, rows = parse_table(text)
    except ValueError:
        return {}
    metrics: dict[str, float] = {}
    for name in THROUGHPUT_COLUMNS:
        if name in headers:
            values = _column_values(headers, rows, name)
            if values:
                metrics[name] = max(values)
    for name in LATENCY_COLUMNS:
        if name in headers:
            values = _column_values(headers, rows, name)
            if values:
                metrics[name] = min(values)
    return metrics


def metrics_from_json(text: str) -> dict[str, float]:
    """The gated metrics of a ``--json`` benchmark document.

    The document's ``metrics`` block maps metric name -> value; only the
    recognized (gateable) names participate, so emitters are free to add
    informational metrics.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        return {}
    if not isinstance(document, dict):
        return {}
    raw = document.get("metrics")
    if not isinstance(raw, dict):
        return {}
    gated = THROUGHPUT_COLUMNS + LATENCY_COLUMNS
    metrics = {}
    for name, value in raw.items():
        if name in gated and isinstance(value, (int, float)):
            metrics[name] = float(value)
    return metrics


def best_throughput(text: str) -> float | None:
    """The table's best throughput, or None when it has no metric column.

    (The original single-metric probe, kept for compatibility; the gate
    itself runs on :func:`metrics_from_table`.)
    """
    metrics = metrics_from_table(text)
    for name in THROUGHPUT_COLUMNS:
        if name in metrics:
            return metrics[name]
    return None


#: Backwards-compatible alias (the original name, before the ingestion
#: benchmark introduced a second metric column).
best_pairs_per_sec = best_throughput


@dataclass(frozen=True)
class Comparison:
    """One (file, metric) baseline-vs-current verdict."""

    name: str
    baseline: float
    current: float | None
    threshold: float
    metric: str = "pairs_per_sec"
    #: "higher" = throughput (drops regress), "lower" = latency (rises
    #: regress)
    direction: str = "higher"

    @property
    def ratio(self) -> float | None:
        if self.current is None or self.baseline <= 0:
            return None
        return self.current / self.baseline

    @property
    def regressed(self) -> bool:
        # a missing current table is a regression too: the benchmark that
        # produced the committed baseline did not run or stopped reporting
        if self.current is None:
            return True
        if self.direction == "lower":
            return self.current > self.baseline * (1.0 + self.threshold)
        return self.current < self.baseline * (1.0 - self.threshold)


def _file_metrics(path: Path) -> dict[str, float]:
    text = path.read_text()
    if path.suffix == ".json":
        return metrics_from_json(text)
    return metrics_from_table(text)


def compare_dirs(
    baseline_dir: Path, current_dir: Path, threshold: float
) -> list[Comparison]:
    """Compare every gated metric of every baseline file against current."""
    comparisons = []
    paths = sorted(Path(baseline_dir).glob("*.txt")) + sorted(
        Path(baseline_dir).glob("*.json")
    )
    for baseline_path in paths:
        baseline_metrics = _file_metrics(baseline_path)
        if not baseline_metrics:
            continue  # not a metric file (figure reproductions etc.)
        current_path = Path(current_dir) / baseline_path.name
        current_metrics = (
            _file_metrics(current_path) if current_path.is_file() else {}
        )
        for metric, baseline_value in sorted(baseline_metrics.items()):
            comparisons.append(
                Comparison(
                    name=baseline_path.name,
                    baseline=baseline_value,
                    current=current_metrics.get(metric),
                    threshold=threshold,
                    metric=metric,
                    direction=(
                        "lower" if metric in LATENCY_COLUMNS else "higher"
                    ),
                )
            )
    return comparisons


def new_metric_files(baseline_dir: Path, current_dir: Path) -> list[str]:
    """Current-dir metric files with no committed baseline counterpart.

    ``compare_dirs`` iterates baseline files only, so a freshly added
    benchmark would otherwise sail through the gate silently; these names
    are reported as "new baseline adopted" so the adoption is an explicit,
    reviewable event rather than an absence of output.
    """
    baseline_names = {
        path.name
        for pattern in ("*.txt", "*.json")
        for path in Path(baseline_dir).glob(pattern)
    }
    fresh = []
    for pattern in ("*.txt", "*.json"):
        for path in sorted(Path(current_dir).glob(pattern)):
            if path.name not in baseline_names and _file_metrics(path):
                fresh.append(path.name)
    return fresh


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when benchmark metrics regress beyond a threshold"
    )
    parser.add_argument("--baseline", required=True,
                        help="directory of committed baseline tables")
    parser.add_argument("--current", required=True,
                        help="directory of freshly produced tables")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional change (default 0.30)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.threshold < 1.0:
        parser.error(f"threshold must be in [0, 1), got {args.threshold}")

    comparisons = compare_dirs(args.baseline, args.current, args.threshold)
    for name in new_metric_files(args.baseline, args.current):
        print(f"{name}: new baseline adopted (no committed counterpart)")
    if not comparisons:
        print("no gated metrics found in the baseline directory")
        return 0

    failed = False
    for comp in comparisons:
        current = "MISSING" if comp.current is None else f"{comp.current:12.1f}"
        ratio = "-" if comp.ratio is None else f"{comp.ratio:.2f}x"
        verdict = "REGRESSED" if comp.regressed else "ok"
        failed = failed or comp.regressed
        print(
            f"{comp.name:32s} {comp.metric:16s} "
            f"baseline={comp.baseline:12.1f} "
            f"current={current} ({ratio}) {verdict}"
        )
    if failed:
        print(
            f"\nFAIL: a metric moved more than "
            f"{args.threshold:.0%} past the committed baseline"
        )
        return 1
    print("\nall benchmark metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

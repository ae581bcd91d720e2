#!/usr/bin/env python3
"""A/A check: two sets of runs of the same code must agree within the bounds.

    python3 bench/aa.py                     # 10 seeds x 4 workloads x 2 sets
    python3 bench/aa.py --runs 3 --workloads serve_score

Each set runs every workload once per seed (untraced) plus one traced run on
the first seed.  Per workload and end-to-end metric it prints both medians,
the gap between them in the metric's worse direction, and each set's
quartile spread (``statistics.quantiles(n=4)``, Q3 - Q1 over the median)
against the bound in ``BENCHMARK.json``.

Exit status is non-zero when a gap or a spread (``setup_s`` spread excepted)
exceeds its bound, an operation failed, or something that must repeat
exactly for a seed did not: ``f1``, the input digests, the counts of
fixed-count operations, ``wal.records`` and ``wal.bytes_per_record``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench.suite import DECLARED, OUT, WORKLOADS, run_once  # noqa: E402

EXACT_LAYERS = ("wal.records", "wal.bytes_per_record")


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def exact_facts(document: dict) -> dict:
    """What one seed must reproduce exactly, run after run."""
    counts = {k: v for k, v in document["facts"]["samples"].items()
              if k != "score"}  # the score loop is time-boxed
    return {
        "f1": document["end_to_end"]["f1"],
        "world_sha256": document["facts"]["world_sha256"],
        "ops_sha256": document["facts"]["ops_sha256"],
        "counts": counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds per workload and set (>= 2)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=WORKLOADS,
                        choices=WORKLOADS)
    args = parser.parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    sets: list[dict] = []
    for label in ("A", "B"):
        runs: dict = {}
        for workload in args.workloads:
            print(f"set {label}: {workload} seeds {seeds[0]}..{seeds[-1]}",
                  flush=True)
            runs[workload] = {
                "untraced": [run_once(workload, seed, 0) for seed in seeds],
                "traced": run_once(workload, seeds[0], 1),
            }
        sets.append(runs)

    problems: list[str] = []
    rows: list[dict] = []
    for workload in args.workloads:
        first, second = (s[workload] for s in sets)
        for document in first["untraced"] + second["untraced"] + [
                first["traced"], second["traced"]]:
            if document["failed"]:
                problems.append(
                    f"{workload} seed {document['seed']}: {document['failed']} "
                    f"of {document['attempted']} operations failed: "
                    f"{document['facts']['failures']}"
                )
        for a, b in zip(first["untraced"], second["untraced"]):
            if exact_facts(a) != exact_facts(b):
                problems.append(
                    f"{workload} seed {a['seed']} did not repeat exactly: "
                    f"{exact_facts(a)} vs {exact_facts(b)}"
                )
        for name in EXACT_LAYERS:
            values = [s["traced"]["per_layer"][name] for s in (first, second)]
            if values[0] != values[1]:
                problems.append(f"{workload}: {name} did not repeat: {values}")

        print(f"\n{workload}")
        print(f"  {'metric':20s} {'median A':>11s} {'median B':>11s} "
              f"{'gap':>7s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}")
        for metric in DECLARED["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([d["end_to_end"][name] for d in s["untraced"]]
                    for s in (first, second))
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = [spread(a), spread(b)]
            flags = []
            if abs(worse) > bound:
                flags.append("GAP")
            if name != "setup_s" and max(spreads) > bound:
                flags.append("SPREAD")
            elif max(spreads) > bound / 3:
                flags.append("wide")
            print(f"  {name:20s} {med_a:11.5g} {med_b:11.5g} {worse:+7.1%} "
                  f"{spreads[0]:9.1%} {spreads[1]:9.1%} {bound:6.0%} "
                  f"{' '.join(flags)}")
            rows.append({"workload": workload, "metric": name, "median_a": med_a,
                         "median_b": med_b, "gap": worse, "spread_a": spreads[0],
                         "spread_b": spreads[1], "bound": bound, "values_a": a,
                         "values_b": b})
            problems.extend(
                f"{workload} {name}: {flag} beyond the {bound:.0%} bound"
                for flag in flags if flag.isupper()
            )
        walls = [d["wall_s"] for s in (first, second) for d in s["untraced"]]
        print(f"  wall per untraced run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s; traced "
              f"{first['traced']['wall_s']:.1f} / {second['traced']['wall_s']:.1f} s")

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "aa.json").write_text(json.dumps(
        {"seeds": seeds, "rows": rows, "problems": problems}, indent=1
    ))
    print("\nA/A " + ("FAILED:" if problems else "passed"))
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

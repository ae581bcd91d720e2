#!/usr/bin/env python3
"""Run the whole suite for one seed: every workload untraced, then traced.

    python3 bench/suite.py                       # seed 0, bench/out/suite.json
    python3 bench/suite.py --ledger bench/ledger/BENCH_13.json
    python3 bench/suite.py --update-pins         # benchmark PRs only

Each workload runs through ``bench/run.py`` in a fresh process.  The report
prints, per workload, the end-to-end metrics of the untraced run, how much
the traced run's own end-to-end values differ from them (the tracing
overhead), and the fit-time scaling exponent between the two fit workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One ``bench/run.py`` process; returns its result document + wall time."""
    command = [sys.executable, str(ROOT / "bench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr}")
    document = json.loads(
        (OUT / f"{workload}.seed{seed}.trace{trace}.json").read_text()
    )
    document["wall_s"] = wall
    if done.stderr.strip():
        print(done.stderr, file=sys.stderr)
    return document


def report(results: dict) -> float:
    """Print the suite table; returns the fit-time scaling exponent."""
    for workload, pair in results.items():
        plain, traced = pair["untraced"], pair["traced"]
        print(f"\n{workload}  (attempted {plain['attempted']}, failed "
              f"{plain['failed']}, wall {plain['wall_s']:.1f} s untraced / "
              f"{traced['wall_s']:.1f} s traced)")
        print(f"  {'metric':22s} {'untraced':>12s} {'traced':>12s} {'overhead':>9s}")
        for name, value in plain["end_to_end"].items():
            other = traced["end_to_end"][name]
            print(f"  {name:22s} {value:12.5g} {other:12.5g} "
                  f"{(other - value) / value:+9.1%}")
        layer = traced["per_layer"]
        rebuilt = layer["serving.request_ms"] + layer["gateway.overhead_ms"]
        print(f"  stage spans cover {layer['stages.coverage']:.1%} of the traced "
              f"fit; serving.request_ms + gateway.overhead_ms = {rebuilt:.3f} ms "
              f"vs untraced p50_ms {plain['end_to_end']['p50_ms']:.3f} ms")
    small, large = (results[w]["untraced"] for w in ("fit_text_bound",
                                                     "fit_pair_bound"))
    ratio = large["facts"]["shape"]["persons"] / small["facts"]["shape"]["persons"]
    exponent = math.log(
        large["end_to_end"]["fit_s"] / small["end_to_end"]["fit_s"]
    ) / math.log(ratio)
    print(f"\nfit_s scaling exponent between {small['facts']['shape']['persons']}"
          f" and {large['facts']['shape']['persons']} persons: {exponent:.2f} "
          "(informational)")
    return exponent


def main(argv=None) -> int:
    pins_path = ROOT / "bench" / "inputs.json"
    pins = json.loads(pins_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=pins["seed"])
    parser.add_argument("--ledger", default=None,
                        help="also write the suite document to this path")
    parser.add_argument("--update-pins", action="store_true",
                        help="rewrite bench/inputs.json from this run's digests")
    args = parser.parse_args(argv)

    results: dict = {}
    for workload in WORKLOADS:
        results[workload] = {}
        for label, trace in (("untraced", 0), ("traced", 1)):
            print(f"running {workload} {label} ...", flush=True)
            results[workload][label] = run_once(workload, args.seed, trace)
    if args.update_pins:
        pins = {"seed": args.seed, "workloads": {
            w: {key: results[w]["untraced"]["facts"][key]
                for key in ("world_sha256", "ops_sha256")}
            for w in WORKLOADS
        }}
        pins_path.write_text(json.dumps(pins, indent=1) + "\n")
        print(f"pinned inputs rewritten: {pins_path}")
    document = {
        "benchmark": DECLARED,
        "seed": args.seed,
        "fit_s_scaling_exponent": report(results),
        "host": results[WORKLOADS[0]]["untraced"]["host"],
        "results": results,
    }
    targets = [OUT / "suite.json"] + ([Path(args.ledger)] if args.ledger else [])
    for target in targets:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"wrote {target}")
    failed = sum(run["failed"] for pair in results.values()
                 for run in pair.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

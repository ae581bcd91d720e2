#!/usr/bin/env python3
"""Run one benchmark workload in a fresh process.

    python3 bench/run.py --workload serve_score --seed 3 --seconds 16 --trace 0

Prints every metric by name with its unit, then — as the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The full result
document (host fingerprint, input digests, sample counts) and, for a traced
run, ``*.trace.json`` go under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# run as a script, sys.path[0] is bench/: replace it, so that `bench` is a
# package and none of its modules shadows a stdlib name
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from bench import OUT, host, scenario  # noqa: E402
from bench.spans import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((ROOT / "bench" / "inputs.json").read_text())


def check_pins(result: dict) -> bool | None:
    """Compare a run's input digests with ``bench/inputs.json``.

    None for the smoke shape; a mismatch is shouted, not hidden: the run
    then measures a different workload from the ledger's.
    """
    if result["facts"]["tiny"]:
        return None
    pinned = PINS["workloads"].get(result["workload"], {})
    # the world belongs to the workload; the op sequence to the seed as well
    keys = ["world_sha256"] + ["ops_sha256"] * (result["seed"] == PINS["seed"])
    same = all(result["facts"][key] == pinned.get(key) for key in keys)
    if not same:
        print(
            f"\n*** INPUTS CHANGED: {result['workload']} seed {result['seed']} "
            "no longer generates the inputs pinned in bench/inputs.json.\n"
            "*** datagen or the op planner changed; numbers are NOT comparable "
            "with the ledger until a benchmark PR regenerates the pins.\n",
            file=sys.stderr,
        )
    return same


def main(argv=None) -> int:
    # a terminated run must still unwind, so that the server is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(scenario.WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINS["seed"])
    parser.add_argument("--seconds", type=float,
                        default=float(DECLARED["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test shape (16 persons); not a measurement")
    args = parser.parse_args(argv)

    shape = scenario.TINY if args.tiny else scenario.WORKLOADS[args.workload]
    tracer = Tracer(enabled=bool(args.trace))
    fingerprint = host.fingerprint()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}" + (".tiny" if args.tiny else "")
    work = Path(tempfile.mkdtemp(prefix=f"work-{stem}-", dir=OUT))
    try:
        result = scenario.run_lifecycle(
            args.workload, shape, args.seed, args.seconds, tracer, work,
            OUT / f"{stem}.trace{args.trace}.server.log",
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["facts"]["tiny"] = args.tiny
    result["host"] = fingerprint
    result["traced"] = bool(args.trace)
    result["seconds"] = args.seconds
    result["inputs_match_pins"] = check_pins(result)

    kind = "per_layer" if args.trace else "end_to_end"
    declared, measured = DECLARED[kind], result[kind]
    if {m["name"] for m in declared} != set(measured):
        raise SystemExit(
            f"{kind} metrics measured and declared in BENCHMARK.json differ: "
            f"{sorted({m['name'] for m in declared} ^ set(measured))}"
        )
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}
    (OUT / f"{stem}.trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True)
    )
    if args.trace:
        tracer.write(OUT / f"{stem}.trace.json")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']}")
    if fingerprint["loaded"]:
        print(f"  note: 1-minute load {fingerprint['load_1m']} is above "
              "nproc/2; timings from this run are suspect")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    for failure in result["facts"]["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

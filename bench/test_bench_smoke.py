"""Smoke test of the benchmark command at the ``--tiny`` shape.

Every workload name goes through ``bench/run.py`` once — two untraced, two
traced — in fresh processes, one after the other (two at a time is slower:
their BLAS threads fight over the cores).  The assertions are about the
contract (metric names, units, counts, output checks, span nesting, a clean
tree), never about speed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
RUNS = [("fit_text_bound", 0), ("serve_churn", 0),
        ("fit_pair_bound", 1), ("serve_score", 1)]


def git_status() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


@pytest.fixture(scope="module")
def runs():
    before = git_status()
    finished = {
        (workload, trace): subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--tiny",
             "--workload", workload, "--seed", str(SEED),
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        for workload, trace in RUNS
    }
    return finished, before


def test_manifest_is_consistent():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    assert {w for w, _ in RUNS} == {w["name"] for w in DECLARED["workloads"]}
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("workload,trace", RUNS)
def test_run_prints_every_declared_metric(runs, workload, trace):
    done = runs[0][(workload, trace)]
    assert done.returncode == 0, done.stderr
    stdout = done.stdout
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
        if not trace:
            assert printed["value"] > 0, metric["name"]
        # the human-readable table names it too
        assert f"  {metric['name']} " in stdout


@pytest.mark.parametrize("workload", [w for w, trace in RUNS if trace])
def test_trace_spans_nest(runs, workload):
    path = ROOT / "bench" / "out" / f"{workload}.seed{SEED}.tiny.trace.json"
    spans = json.loads(path.read_text())["spans"]
    by_id = {span["id"]: span for span in spans}
    names = {span["name"] for span in spans}
    assert {"fit", "stage.featurize", "stage.optimize", "driver.request",
            "gateway.wire", "wal.recover"} <= names
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
    fit = next(s for s in spans if s["name"] == "fit")
    staged = sum(s["end"] - s["start"] for s in spans
                 if s["name"].startswith("stage.") and s["parent"] == fit["id"])
    assert staged >= 0.95 * (fit["end"] - fit["start"])


def test_runs_leave_the_tree_clean(runs):
    before = runs[1]
    if before is None:
        pytest.skip("not a git checkout")
    assert git_status() == before
    leftovers = [p.name for p in (ROOT / "bench" / "out").glob("work-*.tiny-*")]
    assert leftovers == []

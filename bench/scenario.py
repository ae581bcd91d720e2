"""One lifecycle, four shapes: world -> fit -> save -> serve -> churn -> recover.

Every workload runs the same phases through the program's public surface
(library calls, ``python -m repro.cli`` subprocesses, the HTTP wire API), so
every end-to-end metric exists on every workload; the shapes in
:data:`WORKLOADS` decide which layer dominates.  The traced run repeats the
lifecycle with spans round each call and adds the per-layer replays of
:mod:`bench.layers`.
"""

from __future__ import annotations

import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core.hydra import HydraLinker
from repro.datagen.generator import (
    WorldConfig,
    english_platform_specs,
    generate_world,
)
from repro.eval.harness import make_label_split
from repro.eval.metrics import precision_recall_f1
from repro.serving import LinkageService, holdout_split
from repro.wal import capture_payload, payload_to_json

from bench import SRC, driver, layers
from bench.spans import Tracer

__all__ = ["Shape", "WORKLOADS", "TINY", "run_lifecycle"]


CONNECTIONS = 2  # score-phase callers; never more than nproc on this box
# `repro fit` defaults, with the label share the issue fixed
FIT_SETTINGS = dict(missing_strategy="core", num_topics=10, max_lda_docs=2500)
LABEL_FRACTION = 0.3


@dataclass(frozen=True)
class Shape:
    """What one workload runs; counts are fixed so WAL contents repeat.

    The world and the arrivals are part of the shape, not of the run's
    seed: held-out accounts differ 2x in ingest cost and worlds of one size
    differ 5% in memory, so a world per seed made the spread *across seeds*
    (which the bounds are checked against) 30-50% on the write metrics, and
    even shuffling the arrivals moved which account pays the first ingest's
    lazy index bootstrap.  ``--seed`` drives everything else that is
    stochastic: label split, LDA/QP seed, request streams, read targets.
    """

    persons: int
    world_seed: int
    fits: int           # fresh HydraLinker.fit calls; fit_s is their median
    score_share: float  # share of --seconds spent in the measured score loop
    cycles: int         # ingest/link/remove cycles of the churn phase
    reads: int          # warm reads per half cycle
    recovers: int       # `repro recover` subprocess runs; recover_s = median


WORKLOADS: dict[str, Shape] = {
    "fit_text_bound": Shape(persons=100, world_seed=101, fits=3, score_share=0.15,
                            cycles=8, reads=50, recovers=1),
    "fit_pair_bound": Shape(persons=300, world_seed=303, fits=1, score_share=0.15,
                            cycles=6, reads=50, recovers=1),
    "serve_score": Shape(persons=100, world_seed=202, fits=1, score_share=0.5,
                         cycles=8, reads=50, recovers=1),
    "serve_churn": Shape(persons=100, world_seed=404, fits=1, score_share=0.15,
                         cycles=20, reads=50, recovers=2),
}

# the smoke test's shape: every phase runs, nothing is sized to be steady
TINY = Shape(persons=16, world_seed=7, fits=1, score_share=0.5, cycles=2, reads=3,
             recovers=1)

SETUP_REPEATS = 3


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Operations attempted / failed; a failed output check is a failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def requests(self, samples: list) -> None:
        for sample in samples:
            self.op(sample.ok, f"{sample.kind} -> HTTP {sample.status}")


@dataclass
class Inputs:
    world: object
    base: object
    pair: tuple
    split: object
    held: list
    payloads: list


def build_inputs(shape: Shape, seed: int, tracer: Tracer) -> Inputs:
    """Everything the program receives: world, label split, held-out arrivals."""
    with tracer.span("datagen.generate"):
        world = generate_world(WorldConfig(
            num_persons=shape.persons,
            platforms=english_platform_specs(),
            seed=shape.world_seed,
        ))
    with tracer.span("bench.plan_inputs"):
        per_platform = -(-shape.cycles // 2)
        base, held = holdout_split(world, per_platform)
        held = held[: shape.cycles]
        pair = tuple(base.platform_names()[:2])
        split = make_label_split(
            base, [pair], label_fraction=LABEL_FRACTION, seed=seed
        )
        payloads = [
            payload_to_json(capture_payload(world, ref))
            for ref in held
        ]
    return Inputs(world, base, pair, split, held, payloads)


def world_digest(world) -> str:
    """SHA-256 over every account's full state, in a fixed order."""
    accounts = [
        payload_to_json(capture_payload(world, (name, account_id)))
        for name in world.platform_names()
        for account_id in sorted(world.platforms[name].account_ids())
    ]
    return driver.digest(accounts)


def fit_linker(inputs: Inputs, seed: int, tracer: Tracer, group: str):
    """One fresh fit; returns ``(linker, seconds, stage context or None)``."""
    linker = HydraLinker(seed=seed, **FIT_SETTINGS)
    with layers.traced_stages(linker, tracer) as stages:
        with tracer.span("fit", group) as fit:
            linker.fit(
                inputs.base, inputs.split.labeled_positive,
                inputs.split.labeled_negative, [inputs.pair],
            )
    return linker, fit.seconds, stages[0].context if stages else None


def heldout_f1(linker: HydraLinker, inputs: Inputs) -> tuple[float, int]:
    result = linker.linkage(*inputs.pair)
    metrics = precision_recall_f1(
        result.linked, inputs.split.heldout_true[inputs.pair],
        exclude=inputs.split.all_true_labeled,
    )
    return metrics.f1, len(result.linked)


# ----------------------------------------------------------------------
# the server subprocess
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


class Server:
    """``python -m repro.cli serve`` as a subprocess (its own GIL)."""

    def __init__(self, artifact: Path, wal: Path, log_path: Path):
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--artifact", str(artifact), "--port", "0",
             "--wal", str(wal), "--fsync", "batch"],
            stdout=subprocess.PIPE, stderr=self._log, env=child_env(),
        )
        self.port: int | None = None

    def wait_ready(self, tracer: Tracer, timeout: float = 120.0) -> None:
        """Block until ``/healthz`` answers 200."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "http://" not in line:
            raise RuntimeError(f"server did not come up: {line!r}")
        self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
        conn = driver.Connection(self.port, tracer)
        try:
            sample = conn.call("healthz", "GET", "/healthz")
        finally:
            conn.close()
        if not sample.ok:
            raise RuntimeError(f"/healthz answered {sample.status}")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(status.split("VmHWM:")[1].split()[0]) / 1024.0

    def kill(self) -> None:
        """SIGKILL (a crash, not a drain) and wait until the process ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()


def recover_once(artifact: Path, wal: Path, work: Path, number: int,
                 tracer: Tracer):
    """Time one ``repro recover`` subprocess on its own copy of the log."""
    wal_copy = work / f"wal-copy-{number}"
    shutil.copytree(wal, wal_copy)
    with tracer.span("wal.recover", f"recover:{number}") as span:
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "recover",
             "--artifact", str(artifact), "--wal", str(wal_copy),
             "--out", str(work / f"recovered-{number}"), "--json"],
            env=child_env(), capture_output=True, text=True, timeout=170,
        )
    try:
        report = json.loads(done.stdout) if done.returncode == 0 else {}
    except ValueError:
        report = {}
    return span.seconds, report


# ----------------------------------------------------------------------
# the lifecycle
# ----------------------------------------------------------------------
def run_lifecycle(name: str, shape: Shape, seed: int, seconds: float,
                  tracer: Tracer, work: Path, log_path: Path) -> dict:
    """Run one workload; returns ``{"end_to_end", "per_layer", ...}``.

    ``work`` is a scratch directory the caller removes; ``log_path``
    receives the server's stderr.
    """
    tally = Tally()
    e2e: dict[str, float] = {}
    layer: dict[str, float] = {}
    facts: dict[str, object] = {"shape": asdict(shape)}

    # -- set-up, part 1: inputs (repeated; the last build is the one used) --
    input_seconds = []
    for _ in range(SETUP_REPEATS):
        with tracer.span("bench.build_inputs") as built:
            inputs = build_inputs(shape, seed, tracer)
        input_seconds.append(built.seconds)

    # -- fit ----------------------------------------------------------------
    fit_seconds, f1_values = [], []
    fits = 1 if tracer.enabled else shape.fits
    for number in range(fits):
        linker, took, context = fit_linker(inputs, seed, tracer, f"fit:{number}")
        fit_seconds.append(took)
        f1, linked = heldout_f1(linker, inputs)
        f1_values.append(f1)
        tally.op(f1 >= 0.9 and linked > 0,
                 f"fit {number}: f1={f1:.4f} over {linked} links")
    tally.op(len(set(f1_values)) == 1, f"f1 differs between fits: {f1_values}")
    e2e["fit_s"] = statistics.median(fit_seconds)
    e2e["f1"] = f1_values[0]
    e2e["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if tracer.enabled:
        platforms = inputs.world.platforms.values()
        layer["datagen.generate_s"] = statistics.median(
            s.seconds for s in tracer.spans if s.name == "datagen.generate"
        )
        layer["datagen.accounts"] = sum(len(p) for p in platforms)
        layer["datagen.events"] = sum(len(p.events) for p in platforms)
        layer.update(layers.fit_layers(tracer, linker, context, inputs))

    # -- set-up, part 2: save + server ready ---------------------------------
    artifact, wal = work / "artifact", work / "wal"
    with tracer.span("persist.save") as save:
        linker.save(artifact)
    with Server(artifact, wal, log_path) as server:
        with tracer.span("gateway.ready") as ready:
            server.wait_ready(tracer)
        e2e["setup_s"] = (
            statistics.median(input_seconds) + save.seconds + ready.seconds
        )

        # the same artifact in this process: the reference for the checks
        with tracer.span("persist.load") as load:
            service = LinkageService.from_artifact(artifact)
        catalogue_pairs = service.candidate_pairs(inputs.pair)
        sample_pairs = catalogue_pairs[:256]
        tally.op(
            service.score_pairs(sample_pairs).tobytes()
            == linker.score_pairs(sample_pairs).tobytes(),
            "loaded artifact scores differ from the fitted linker's",
        )

        control = driver.Connection(server.port, tracer)
        try:
            found = control.call("catalogue", "GET", "/candidates?limit=1000000")
            tally.requests([found])
            catalogue = (found.payload or {}).get("pairs", [])

            # -- score phase: nothing cached, every request recomputes -------
            measure_s = seconds * shape.score_share
            samples, window_s, pinned = driver.run_score_phase(
                server.port, seed, catalogue, connections=CONNECTIONS,
                warmup_s=max(0.3, 0.1 * measure_s), measure_s=measure_s,
                tracer=tracer,
            )
            tally.requests(samples)
            good = [s.latency_ms for s in samples if s.ok]
            e2e["req_per_s"] = len(good) / window_s
            e2e["p50_ms"] = statistics.median(good)
            for pairs, scores in (p for conn in pinned for p in conn):
                refs = [(tuple(a), tuple(b)) for a, b in pairs]
                tally.op(
                    scores == [float(s) for s in service.score_pairs(refs)],
                    "HTTP /score_pairs scores differ from in-process scores",
                )

            # -- churn phase: writes beside reads, fixed op counts ------------
            resident = sorted({tuple(p[0]) for p in catalogue}
                              | {tuple(p[1]) for p in catalogue})
            ops = driver.plan_churn(seed, inputs.held, inputs.payloads,
                                    resident, shape.cycles, shape.reads)
            churn = driver.run_churn_phase(server.port, ops, tracer)
            tally.requests(churn)
            by_kind: dict[str, list] = {}
            for sample in churn:
                if sample.ok:
                    by_kind.setdefault(sample.kind, []).append(sample)
            for kind, metric in (("ingest", "ingest_p50_ms"),
                                 ("fresh_link", "fresh_link_p50_ms"),
                                 ("remove", "remove_p50_ms"),
                                 ("read", "read_p50_ms")):
                e2e[metric] = statistics.median(
                    s.latency_ms for s in by_kind[kind]
                )
            writes = [s for s in churn if s.kind in ("ingest", "remove")]
            last_epoch = (writes[-1].payload or {}).get("epoch")
            tally.op(last_epoch == 2 * shape.cycles,
                     f"last acknowledged epoch {last_epoch}")

            stats = control.call("stats", "GET", "/stats")
            tally.requests([stats])
        finally:
            control.close()
        e2e["serve_rss_mb"] = server.peak_rss_mb()
        server.kill()  # a crash: recovery must come from artifact + log

    # -- recovery -----------------------------------------------------------
    recover_seconds = []
    for number in range(shape.recovers):
        seconds_taken, report = recover_once(artifact, wal, work, number,
                                             tracer)
        recover_seconds.append(seconds_taken)
        tally.op(
            report.get("recovered_epoch") == last_epoch
            and report.get("records_replayed") == 2 * shape.cycles,
            f"recover {number}: {report}",
        )
    e2e["recover_s"] = statistics.median(recover_seconds)

    score_plan = [
        [next(stream) for _ in range(driver.PINNED_SCORE_REQUESTS)]
        for stream in (driver.plan_score_requests(seed, i, catalogue)
                       for i in range(CONNECTIONS))
    ]
    facts.update(
        world_sha256=world_digest(inputs.world),
        ops_sha256=driver.digest([score_plan, ops]),
        candidates=len(catalogue),
        samples={kind: len(v) for kind, v in by_kind.items()}
        | {"score": len(good), "fit": len(fit_seconds),
           "recover": len(recover_seconds), "setup": SETUP_REPEATS},
        failures=tally.failures,
    )

    if tracer.enabled:
        layer.update(layers.serve_layers(
            tracer, artifact, inputs, samples, churn, pinned,
            stats.payload or {}, e2e,
        ))
        layer.update(layers.wal_layers(
            tracer, inputs, wal, work, churn, e2e["recover_s"], load.seconds,
            save.seconds, child_env(),
        ))
        layer["persist.save_s"] = save.seconds
        layer["persist.load_s"] = load.seconds
        layer["persist.artifact_mb"] = sum(
            f.stat().st_size for f in artifact.rglob("*") if f.is_file()
        ) / 1e6
        layer["gateway.ready_s"] = ready.seconds
    service.close()

    return {
        "workload": name,
        "seed": seed,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "end_to_end": e2e,
        "per_layer": layer,
        "facts": facts,
    }

"""Fault-injection chaos harness: crashes and swaps against real gateways.

Three scenarios prove the durability contract the WAL exists for:

* **kill -9 mid-ingest** — a real ``repro serve`` subprocess, WAL
  attached, ``REPRO_FAULTS`` arming a *torn write* (partial frame
  fsynced to disk, then SIGKILL) in the middle of an ingest storm.
  :func:`repro.wal.recover` must come back at the exact epoch of the
  last durable record, with ``score_pairs`` / ``top_k`` bit-identical
  to a never-crashed service that applied the same logged mutations.
* **restart in place** — ``repro serve --wal DIR`` SIGKILLed after N
  acknowledged ingests and restarted on the same directory must replay
  the log itself: ``/stats`` reports the last acknowledged epoch and
  ``/link_account`` answers byte-for-byte like a ``repro recover`` twin.
* **blue/green swap under load** — an in-process gateway serving a
  mixed read+churn workload while ``POST /swap`` cuts over to a refit
  artifact; zero failed requests (client-side 429 retries permitted),
  epoch continuity across the cutover, scores bit-identical after it.
* **cutover fault** — an ``error`` fault armed at ``swap.cutover``
  turns the swap into a 500 and the live service keeps serving with
  its WAL intact; the retried swap then succeeds.
* **shard worker SIGKILL** — a gateway over a 3-shard
  :class:`~repro.shard.ShardedLinkageService` with real worker
  processes; one worker is killed ``-9`` mid-load.  Reads must keep
  answering (degraded, ``shards_unavailable`` marked, zero failed
  requests), writes to the dead owner must 503, and after
  ``POST /shards/restart`` the rejoined shard must be bit-identical to
  a never-crashed sharded deployment that applied the same mutations.
* **follower replica SIGKILL** — a primary gateway spreading reads
  over a real ``repro replica`` subprocess tailing its WAL; the
  follower is killed ``-9`` mid-tail under mixed load.  Zero failed
  reads (the router falls back locally), ``/replicas`` reports the
  death honestly, and a respawned follower resumes from its persisted
  cursor/checkpoint and converges bit-identically to the primary.

Set ``CHAOS_ARTIFACT_DIR`` to keep the WALs and summaries the scenarios
produce (CI uploads them as build artifacts).
"""

import http.client
import json
import os
import pickle
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import HydraLinker
from repro.datagen import WorldConfig, generate_world
from repro.eval.harness import make_label_split
from repro.gateway import (
    GatewayClient,
    GatewayConfig,
    GatewayError,
    GatewayThread,
    WorkloadMix,
    plan_workload,
    run_load,
)
from repro.persist import save_linker
from repro.serving import LinkageService, holdout_split
from repro.shard import ShardedLinkageService, plan_shards
from repro.wal import (
    WriteAheadLog,
    apply_payload,
    capture_payload,
    faults,
    payload_to_json,
    read_wal,
    recover,
)

PLATFORM_PAIRS = [("facebook", "twitter")]
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def fitted_blob(tmp_path_factory):
    """(pickled linker, artifact dir, full world, held refs, payloads)."""
    world = generate_world(WorldConfig(num_persons=20, seed=33))
    base, held = holdout_split(world, 2)
    split = make_label_split(base, PLATFORM_PAIRS, seed=33)
    linker = HydraLinker(seed=33, num_topics=8, max_lda_docs=1500)
    linker.fit(
        base, split.labeled_positive, split.labeled_negative, PLATFORM_PAIRS
    )
    artifact = tmp_path_factory.mktemp("artifact")
    save_linker(linker, artifact)
    # the arriving accounts' full state, as an upstream producer would
    # ship it inline over POST /ingest
    payloads = [capture_payload(world, ref) for ref in held]
    return pickle.dumps(linker), artifact, world, list(held), payloads


def _clone_service(fitted_blob, **kwargs) -> LinkageService:
    kwargs.setdefault("batch_size", 64)
    return LinkageService(pickle.loads(fitted_blob[0]), **kwargs)


def _export_artifacts(name: str, wal_dir: Path, summary: dict) -> None:
    """Copy a scenario's WAL + summary for CI upload (best-effort)."""
    root = os.environ.get("CHAOS_ARTIFACT_DIR")
    if not root:
        return
    dest = Path(root) / name
    dest.mkdir(parents=True, exist_ok=True)
    if wal_dir.is_dir():
        shutil.copytree(wal_dir, dest / "wal", dirs_exist_ok=True)
    (dest / "summary.json").write_text(json.dumps(summary, indent=2))


# ----------------------------------------------------------------------
# scenario 1: kill -9 a serving subprocess mid-ingest
# ----------------------------------------------------------------------
def _cli_env(fault_spec: str = "") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_FAULTS"] = fault_spec
    return env


def _spawn_gateway(artifact: Path, wal_dir: Path, fault_spec: str):
    env = _cli_env(fault_spec)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--artifact", str(artifact), "--wal", str(wal_dir),
            "--fsync", "batch", "--host", "127.0.0.1", "--port", "0",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _wait_for_port(proc, timeout: float = 300.0) -> int:
    """Read the subprocess's ``serving ...`` banner and parse the port."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"gateway exited during startup:\n{proc.stdout.read()}"
            )
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if not ready:
            continue
        line = proc.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if line.startswith("serving") and match:
            return int(match.group(1))
    raise TimeoutError("gateway never reported its port")


class TestKillNineRecovery:
    def test_torn_crash_recovers_to_exact_logged_epoch(
        self, fitted_blob, tmp_path
    ):
        _, artifact, _, held, payloads = fitted_blob
        crash_on = 3  # the 3rd WAL append tears mid-frame and SIGKILLs
        wal_dir = tmp_path / "wal"
        proc = _spawn_gateway(
            artifact, wal_dir, f"wal.append:torn:{crash_on}"
        )
        try:
            port = _wait_for_port(proc)
            survivors = 0
            died_mid_storm = False
            with GatewayClient("127.0.0.1", port, timeout=120) as client:
                assert client.healthz()["epoch"] == 0
                for ref, payload in zip(held, payloads):
                    try:
                        out = client.ingest(
                            [ref],
                            accounts=[payload_to_json(payload)],
                            score=False,
                        )
                    except Exception:
                        died_mid_storm = True
                        break
                    survivors += 1
                    assert out["epoch"] == survivors
            assert died_mid_storm, "fault never fired: server outlived storm"
            assert survivors == crash_on - 1
            assert proc.wait(timeout=60) == -9  # SIGKILL, no cleanup ran
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)

        # the log: a durable prefix plus the torn frame of the crash
        recovered_log = read_wal(wal_dir)
        assert recovered_log.truncated
        assert len(recovered_log.records) == crash_on - 1
        assert recovered_log.last_epoch == crash_on - 1

        # recovery lands on the exact pre-crash epoch ...
        result = recover(artifact, wal_dir, reopen=False, batch_size=64)
        assert result.base_epoch == 0
        assert result.recovered_epoch == crash_on - 1
        assert result.truncated_tail
        assert result.service.registry_epoch == crash_on - 1

        # ... bit-identical to a service that never crashed: same logged
        # mutations, applied the way the gateway applied them
        clean = _clone_service(fitted_blob)
        for ref, payload in zip(held[: crash_on - 1], payloads):
            apply_payload(clean.world, payload)
            clean.add_accounts([ref], score=False)
        key = tuple(PLATFORM_PAIRS[0])
        pairs = sorted(clean.linker.candidates_[key].pairs)
        assert sorted(result.service.linker.candidates_[key].pairs) == pairs
        assert np.array_equal(
            result.service.score_pairs(pairs), clean.score_pairs(pairs)
        )
        assert [
            (link.pair, link.score)
            for link in result.service.top_k(*key, 10)
        ] == [(link.pair, link.score) for link in clean.top_k(*key, 10)]

        _export_artifacts("kill9", wal_dir, {
            "scenario": "wal.append:torn",
            "crash_on_append": crash_on,
            "recovered_epoch": result.recovered_epoch,
            "records_replayed": result.records_replayed,
            "truncated_tail": result.truncated_tail,
        })

    def test_reopened_log_resumes_after_recovery(self, fitted_blob, tmp_path):
        _, artifact, _, held, payloads = fitted_blob
        wal_dir = tmp_path / "wal"
        proc = _spawn_gateway(artifact, wal_dir, "wal.append:crash:2")
        try:
            port = _wait_for_port(proc)
            with GatewayClient("127.0.0.1", port, timeout=120) as client:
                client.ingest(
                    [held[0]],
                    accounts=[payload_to_json(payloads[0])],
                    score=False,
                )
                with pytest.raises(Exception):
                    client.ingest(
                        [held[1]],
                        accounts=[payload_to_json(payloads[1])],
                        score=False,
                    )
            assert proc.wait(timeout=60) == -9
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)

        # a `crash` fault dies *before* writing, so the log ends clean
        # after record 1; recovery reopens it and serving resumes writing
        result = recover(artifact, wal_dir, batch_size=64)
        assert result.recovered_epoch == 1
        service = result.service
        assert service.wal is not None
        apply_payload(service.world, payloads[1])
        service.add_accounts([held[1]], score=False)
        service.close()
        resumed = read_wal(wal_dir)
        assert not resumed.truncated
        assert [r.epoch for r in resumed.records] == [1, 2]


def _post_raw(port: int, path: str, body: dict) -> bytes:
    """One POST, the response body exactly as it came off the wire."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", path, body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        assert response.status == 200, data
        return data
    finally:
        conn.close()


class TestRestartInPlace:
    def test_serve_wal_restart_replays_acknowledged_writes(
        self, fitted_blob, tmp_path
    ):
        _, artifact, _, held, payloads = fitted_blob
        wal_dir = tmp_path / "wal"
        proc = _spawn_gateway(artifact, wal_dir, "")
        try:
            port = _wait_for_port(proc)
            with GatewayClient("127.0.0.1", port, timeout=120) as client:
                for ref, payload in zip(held, payloads):
                    acked = client.ingest(
                        [ref], accounts=[payload_to_json(payload)], score=False
                    )["epoch"]
            assert acked == len(held)
            proc.send_signal(signal.SIGKILL)  # no drain, no clean close
            assert proc.wait(timeout=60) == -9
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)

        # the twin: `repro recover` of the same log (read-only), served
        # in-process from the artifact it writes
        twin_dir = tmp_path / "twin"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "recover",
             "--artifact", str(artifact), "--wal", str(wal_dir),
             "--out", str(twin_dir)],
            env=_cli_env(), check=True, capture_output=True, timeout=300,
        )

        proc = _spawn_gateway(artifact, wal_dir, "")  # same directory
        try:
            port = _wait_for_port(proc)
            with GatewayClient("127.0.0.1", port, timeout=120) as client:
                assert client.stats()["epoch"] == acked
            asks = [
                {"platform": ref[0], "account_id": ref[1], "top": 5}
                for ref in held
            ]
            restarted = [_post_raw(port, "/link_account", ask) for ask in asks]
            with GatewayThread(
                LinkageService.from_artifact(twin_dir), GatewayConfig()
            ) as twin:
                assert restarted == [
                    _post_raw(twin.port, "/link_account", ask) for ask in asks
                ]
            assert all(json.loads(raw)["epoch"] == acked for raw in restarted)
            # the reopened log keeps numbering where the crash cut it off
            with GatewayClient("127.0.0.1", port, timeout=120) as client:
                assert client.remove_account(held[0])["epoch"] == acked + 1
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=60)
        assert [r.epoch for r in read_wal(wal_dir).records] == list(
            range(1, acked + 2)
        )


# ----------------------------------------------------------------------
# scenario 2: blue/green swap under live load
# ----------------------------------------------------------------------
class TestSwapUnderLoad:
    def test_zero_failed_requests_across_cutover(self, fitted_blob, tmp_path):
        _, artifact, _, held, payloads = fitted_blob
        wal = WriteAheadLog(tmp_path / "wal")
        blue = _clone_service(fitted_blob, wal=wal)
        with GatewayThread(blue, GatewayConfig(max_wait_ms=1.0)) as gateway:
            with GatewayClient(gateway.host, gateway.port) as client:
                # the score/link catalog predates the arrivals, so churn
                # withdrawals can never invalidate a planned read
                catalog = client.candidates(limit=200)
                for ref, payload in zip(held, payloads):
                    client.ingest(
                        [ref],
                        accounts=[payload_to_json(payload)],
                        score=False,
                    )
                assert client.healthz()["epoch"] == len(held)
                probe = [
                    (tuple(pair[0]), tuple(pair[1]))
                    for pair in catalog["pairs"][:8]
                ]
                before = client.score_pairs(probe)["scores"]

            ops = plan_workload(
                catalog,
                mix=WorkloadMix(
                    score_pairs=0.7, top_k=0.15, link_account=0.05,
                    churn=0.1,
                ),
                num_requests=200,
                pairs_per_request=2,
                seed=7,
                churn_refs=held,
            )
            report_box: dict = {}

            def drive():
                report_box["report"] = run_load(
                    gateway.host, gateway.port, ops,
                    mode="closed", concurrency=4,
                )

            loader = threading.Thread(target=drive)
            loader.start()
            time.sleep(0.25)  # let the storm develop, then cut over
            with GatewayClient(
                gateway.host, gateway.port, retry_backpressure=True
            ) as client:
                swapped = client.swap(str(artifact))
                assert swapped["status"] == "swapped"
                # every logged mutation since the artifact's epoch-0
                # snapshot was replayed into the standby
                assert swapped["records_replayed"] >= len(held)
                # churn kept advancing the epoch during the warm replay;
                # the server's fenced equality gate guarantees the cutover
                # itself happened at an exact epoch boundary
                assert swapped["epoch"] >= swapped["previous_epoch"]
                assert swapped["previous_epoch"] >= len(held)
            loader.join(timeout=600)
            assert not loader.is_alive()

            report = report_box["report"]
            assert report.requests == len(ops)
            assert report.failed == 0, (
                f"swap dropped requests: {report.op_counts}"
            )
            assert report.succeeded == len(ops)

            with GatewayClient(gateway.host, gateway.port) as client:
                after = client.score_pairs(probe)["scores"]
                assert after == before  # the refit replay changed nothing
                health = client.healthz()
                # churn kept mutating after the cutover — straight into
                # the same WAL the blue service used
                assert health["epoch"] == wal.snapshot().last_epoch
                epoch_after_swap = health["epoch"]
            assert gateway.gateway.service is not blue
            assert gateway.gateway.service.wal is wal
            assert blue.wal is None
            report_failed = report.op_counts.get("churn", {})
            assert report_failed.get("errors", 0) == 0
            summary = {
                "scenario": "swap-under-load",
                "requests": report.requests,
                "failed": report.failed,
                "retried": report.retried,
                "op_counts": report.op_counts,
                "records_replayed": swapped["records_replayed"],
                "epoch_after_swap": epoch_after_swap,
            }
        # leaving the context stopped the gateway: the swapped-in green
        # service owns the log now and shutdown closed it cleanly
        assert wal.closed
        assert not read_wal(tmp_path / "wal").truncated
        _export_artifacts("swap", tmp_path / "wal", summary)

    def test_swap_rejects_unknown_artifact(self, fitted_blob, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        service = _clone_service(fitted_blob, wal=wal)
        with GatewayThread(service, GatewayConfig(max_wait_ms=1.0)) as gw:
            with GatewayClient(gw.host, gw.port) as client:
                with pytest.raises(GatewayError) as err:
                    client.swap(str(tmp_path / "nowhere"))
                assert err.value.status == 400


# ----------------------------------------------------------------------
# scenario 3: a fault at the cutover instant must not take the service down
# ----------------------------------------------------------------------
class TestSwapCutoverFault:
    def test_cutover_error_leaves_blue_serving(self, fitted_blob, tmp_path):
        _, artifact, _, held, payloads = fitted_blob
        wal = WriteAheadLog(tmp_path / "wal")
        blue = _clone_service(fitted_blob, wal=wal)
        with GatewayThread(blue, GatewayConfig(max_wait_ms=1.0)) as gateway:
            with GatewayClient(gateway.host, gateway.port) as client:
                client.ingest(
                    [held[0]],
                    accounts=[payload_to_json(payloads[0])],
                    score=False,
                )
                faults.arm("swap.cutover", "error")
                with pytest.raises(GatewayError) as err:
                    client.swap(str(artifact))
                assert err.value.status == 500

                # blue never stopped serving and still owns the log
                assert gateway.gateway.service is blue
                assert blue.wal is wal
                assert client.healthz()["epoch"] == 1
                client.ingest(
                    [held[1]],
                    accounts=[payload_to_json(payloads[1])],
                    score=False,
                )
                assert client.healthz()["epoch"] == 2

                # with the fault disarmed the same swap goes through
                swapped = client.swap(str(artifact))
                assert swapped["status"] == "swapped"
                assert swapped["epoch"] == 2
                assert client.healthz()["epoch"] == 2
            assert gateway.gateway.service is not blue


# ----------------------------------------------------------------------
# scenario 4: SIGKILL one shard worker of a sharded tier mid-load
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shard_plan3(fitted_blob, tmp_path_factory):
    """A 3-shard plan cut from the fitted artifact."""
    plan_dir = tmp_path_factory.mktemp("shardchaos") / "plan3"
    plan_shards(fitted_blob[1], plan_dir, 3)
    return plan_dir


class TestShardWorkerKill:
    def test_sigkill_worker_degrades_then_rejoins_bit_identical(
        self, fitted_blob, shard_plan3, tmp_path
    ):
        _, _, _, held, payloads = fitted_blob
        raws = [payload_to_json(p) for p in payloads]
        key = tuple(PLATFORM_PAIRS[0])
        router = ShardedLinkageService(shard_plan3, batch_size=64)
        # the oracle: an identical sharded deployment that never crashes
        # and receives the same mutations
        twin = ShardedLinkageService(
            shard_plan3, batch_size=64, inline=True
        )
        try:
            base_epoch = router.registry_epoch
            with GatewayThread(
                router, GatewayConfig(max_wait_ms=1.0)
            ) as gateway, GatewayClient(
                gateway.host, gateway.port, timeout=120
            ) as client:
                catalog = client.candidates(limit=200)
                probe = [
                    (tuple(pair[0]), tuple(pair[1]))
                    for pair in catalog["pairs"][:8]
                ]

                # ---- healthy scatter-gather is bit-identical to
                # single-process serving, straight through HTTP
                single = _clone_service(fitted_blob)
                scored = client.score_pairs(probe)
                assert "shards_unavailable" not in scored
                assert scored["scores"] == [
                    float(s) for s in single.score_pairs(probe)
                ]
                top = client.top_k(*key, k=10)
                assert [
                    (link["pair"], link["score"])
                    for link in top["links"]
                ] == [
                    ([list(link.pair[0]), list(link.pair[1])], link.score)
                    for link in single.top_k(*key, 10)
                ]

                # ---- route the held accounts' arrival through the
                # gateway; mirror it into the oracle
                out = client.ingest(held, accounts=raws, score=False)
                assert out["epoch"] == base_epoch + 1
                twin.ingest_payloads(list(held), raws, score=False)

                # pick a shard to murder: one that owns catalog pairs but
                # neither arriving account, so the ingest already landed
                # everywhere it must
                holders = {router._route_account(ref) for ref in held}
                dead = next(
                    index for index in range(3) if index not in holders
                )
                dead_pairs = [
                    pair for pair in router.candidate_pairs(key)
                    if router._route_pair(pair) == dead
                ]
                assert dead_pairs, "dead shard owns no pairs; bad seed"
                pid = client.stats()["service"]["shards"][dead]["pid"]

                # ---- SIGKILL the worker mid-load; reads must keep
                # answering with zero failed requests
                ops = plan_workload(
                    catalog,
                    mix=WorkloadMix(
                        score_pairs=0.8, top_k=0.15, link_account=0.05,
                        churn=0.0,
                    ),
                    num_requests=200,
                    pairs_per_request=2,
                    seed=17,
                )
                report_box: dict = {}

                def drive():
                    report_box["report"] = run_load(
                        gateway.host, gateway.port, ops,
                        mode="closed", concurrency=4,
                    )

                loader = threading.Thread(target=drive)
                loader.start()
                time.sleep(0.1)
                os.kill(pid, signal.SIGKILL)
                loader.join(timeout=600)
                assert not loader.is_alive()
                report = report_box["report"]
                assert report.requests == len(ops)
                assert report.failed == 0, (
                    f"shard kill dropped requests: {report.op_counts}"
                )

                # ---- the gateway reports the degradation honestly
                stats = client.stats()
                assert stats["shards_unavailable"] == [dead]
                assert stats["service"]["shards"][dead]["alive"] is False
                assert stats["service"]["degraded_queries"] > 0

                # degraded partial results: exactly the live shards'
                # slice of the full ranking, healthy rows bit-identical
                partial = client.top_k(*key, k=10)
                assert partial["shards_unavailable"] == [dead]
                universe = len(twin.candidate_pairs(key))
                live = [
                    link for link in twin.top_k(*key, universe)
                    if router._route_pair(link.pair) != dead
                ][:10]
                assert [
                    (link["pair"], link["score"])
                    for link in partial["links"]
                ] == [
                    ([list(link.pair[0]), list(link.pair[1])], link.score)
                    for link in live
                ]

                # ---- writes to the dead owner are refused loudly;
                # writes to live owners keep flowing
                dead_ref = next(
                    ref for pair in dead_pairs for ref in pair
                    if router._route_account(ref) == dead
                )
                with pytest.raises(GatewayError) as err:
                    client.remove_account(dead_ref)
                assert err.value.status == 503
                assert client.healthz()["epoch"] == base_epoch + 1

                victim = next(
                    ref
                    for pair in router.candidate_pairs(key)
                    for ref in pair
                    if router._route_account(ref) != dead
                    and ref not in held
                )
                removed = client.remove_account(victim)
                assert removed["epoch"] == base_epoch + 2
                assert twin.remove_account(victim) == removed["pairs_removed"]

                # ---- restart: the shard rejoins at the correct epoch
                # with the missed mutations replayed
                revived = client.restart_shard(dead)
                assert revived["shard"] == dead
                assert revived["health"]["restarts"] == 1
                assert revived["epoch"] == base_epoch + 2
                stats = client.stats()
                assert stats.get("shards_unavailable", []) == []
                assert stats["service"]["shards"][dead]["alive"] is True
                assert stats["service"]["shards"][dead]["restarts"] == 1

                # ---- rejoined tier is bit-identical to the oracle
                assert router.candidate_pairs(key) == (
                    twin.candidate_pairs(key)
                )
                survivors = router.candidate_pairs(key)
                assert np.array_equal(
                    router.score_pairs(survivors),
                    twin.score_pairs(survivors),
                )
                assert [
                    handle.expected_epoch for handle in router._handles
                ] == [handle.expected_epoch for handle in twin._handles]
                final = client.top_k(*key, k=10)
                assert "shards_unavailable" not in final
                assert [
                    (link["pair"], link["score"])
                    for link in final["links"]
                ] == [
                    ([list(link.pair[0]), list(link.pair[1])], link.score)
                    for link in twin.top_k(*key, 10)
                ]
                summary = {
                    "scenario": "shard-worker-sigkill",
                    "shards": 3,
                    "killed_shard": dead,
                    "requests": report.requests,
                    "failed": report.failed,
                    "degraded_queries": stats["service"]["degraded_queries"],
                    "epoch_after_rejoin": revived["epoch"],
                }
        finally:
            twin.close()
            router.close()
        _export_artifacts("shardkill", tmp_path / "no-wal", summary)


# ----------------------------------------------------------------------
# scenario 5: SIGKILL a follower replica mid-tail under mixed load
# ----------------------------------------------------------------------
def _spawn_follower(artifact, wal_dir, state_dir, port: int = 0):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "replica",
            "--artifact", str(artifact), "--wal", str(wal_dir),
            "--state", str(state_dir), "--checkpoint-every", "2",
            "--poll-ms", "10", "--host", "127.0.0.1", "--port", str(port),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


class TestFollowerReplicaKill:
    def test_sigkill_follower_mid_tail_resumes_bit_identical(
        self, fitted_blob, tmp_path
    ):
        _, artifact, _, held, payloads = fitted_blob
        raws = [payload_to_json(p) for p in payloads]
        key = tuple(PLATFORM_PAIRS[0])
        wal_dir = tmp_path / "wal"
        state_dir = tmp_path / "follower-state"
        primary = _clone_service(fitted_blob, wal=WriteAheadLog(wal_dir))

        follower = _spawn_follower(artifact, wal_dir, state_dir)
        try:
            follower_port = _wait_for_port(follower)
            with GatewayThread(
                primary,
                GatewayConfig(
                    max_wait_ms=1.0,
                    read_replicas=(f"127.0.0.1:{follower_port}",),
                    replica_retry_dead_seconds=0.5,
                ),
            ) as gateway, GatewayClient(
                gateway.host, gateway.port, timeout=120
            ) as client:
                catalog = client.candidates(limit=200)

                # two logged arrivals; the follower must tail them in
                for ref, raw in zip(held[:2], raws[:2]):
                    client.ingest([ref], accounts=[raw], score=False)

                def follower_row(want_epoch, timeout=60.0):
                    deadline = time.monotonic() + timeout
                    while time.monotonic() < deadline:
                        row = client.replicas()["replicas"][0]
                        if row["alive"] and row["epoch"] == want_epoch:
                            return row
                        time.sleep(0.05)
                    raise TimeoutError(
                        f"follower never reached epoch {want_epoch}"
                    )

                row = follower_row(2)
                assert row["lag_records"] == 0

                # ---- mixed read storm; SIGKILL the follower mid-tail
                ops = plan_workload(
                    catalog,
                    mix=WorkloadMix(
                        score_pairs=0.7, top_k=0.2, link_account=0.1,
                        churn=0.0,
                    ),
                    num_requests=200,
                    pairs_per_request=2,
                    seed=23,
                )
                report_box: dict = {}

                def drive():
                    report_box["report"] = run_load(
                        gateway.host, gateway.port, ops,
                        mode="closed", concurrency=4,
                    )

                loader = threading.Thread(target=drive)
                loader.start()
                time.sleep(0.15)
                follower.kill()
                assert follower.wait(timeout=60) == -9
                loader.join(timeout=600)
                assert not loader.is_alive()
                report = report_box["report"]
                assert report.requests == len(ops)
                assert report.failed == 0, (
                    f"follower kill dropped reads: {report.op_counts}"
                )

                # ---- /replicas is honest about the corpse
                row = client.replicas()["replicas"][0]
                assert row["alive"] is False
                assert row["known_epoch"] == 2

                # the primary keeps absorbing writes while the follower
                # is down — the respawn has records to catch up on
                for ref, raw in zip(held[2:], raws[2:]):
                    client.ingest([ref], accounts=[raw], score=False)
                assert client.healthz()["epoch"] == len(held)

                # ---- respawn on the same port: resume, don't re-bootstrap
                follower = _spawn_follower(
                    artifact, wal_dir, state_dir, port=follower_port
                )
                assert _wait_for_port(follower) == follower_port
                row = follower_row(len(held))
                assert row["lag_records"] == 0

                # ---- converged follower answers bit-identically
                probe = [
                    (tuple(pair[0]), tuple(pair[1]))
                    for pair in catalog["pairs"][:8]
                ]
                with GatewayClient(
                    "127.0.0.1", follower_port, timeout=120
                ) as direct:
                    status = direct.replicas()["replica"]
                    assert status["resumed"], "follower re-bootstrapped"
                    assert status["epoch"] == len(held)
                    assert direct.score_pairs(probe)["scores"] == (
                        client.score_pairs(probe)["scores"]
                    )
                    assert direct.top_k(*key, k=10)["links"] == (
                        client.top_k(*key, k=10)["links"]
                    )
                    # read-your-writes floor holds on the follower too
                    floored = direct.top_k(
                        *key, k=10, min_epoch=len(held)
                    )
                    assert floored["epoch"] >= len(held)
                summary = {
                    "scenario": "follower-replica-sigkill",
                    "requests": report.requests,
                    "failed": report.failed,
                    "retried": report.retried,
                    "epoch_after_resume": len(held),
                    "resumed": bool(status["resumed"]),
                }
        finally:
            if follower.poll() is None:
                follower.kill()
                follower.wait(timeout=60)
        _export_artifacts("followerkill", wal_dir, summary)

"""Tests for the follower-replica subsystem (:mod:`repro.replica`).

Layers under test, bottom-up:

* :class:`WalTailer` — incremental WAL following with a durable cursor
  (rotation, torn tails, restart resume);
* :class:`FollowerService` — bootstrap from the primary's artifact,
  replay through the shared recovery path, bit-identical reads,
  checkpoint/resume, write rejection, abort handling;
* :class:`ReplicaRouter` — freshness-aware read spreading with
  dead-endpoint failover;
* the replicated gateway topology over real HTTP — a primary with
  ``read_replicas`` forwarding to a live follower gateway, the
  ``X-Min-Epoch`` read-your-writes floor, honest ``/replicas`` status,
  and client-side GET failover.

The invariant everything here defends: a follower at the same
``registry_epoch`` as the primary answers every read **bit-identically**.
"""

import pickle
import time

import numpy as np
import pytest

from repro.core import HydraLinker
from repro.datagen import WorldConfig, generate_world
from repro.eval.harness import make_label_split
from repro.gateway import GatewayClient, GatewayConfig, GatewayError, GatewayThread
from repro.gateway.client import parse_endpoint
from repro.gateway.loadgen import plan_workload, run_load, WorkloadMix
from repro.persist import save_linker
from repro.replica import FollowerService, ReplicaReadOnlyError, WalTailer
from repro.replica.follower import _cancel_aborts
from repro.replica.router import ReplicaRouter, ReplicaUnavailable
from repro.serving import LinkageService, holdout_split
from repro.socialnet import transplant_account
from repro.wal import WalCursor, WalRecord, WriteAheadLog, load_cursor

PLATFORM_PAIRS = [("facebook", "twitter")]
PAIR = PLATFORM_PAIRS[0]


@pytest.fixture(scope="module")
def fitted_blob(tmp_path_factory):
    """(pickled fitted linker, artifact dir, full world, held-out refs)."""
    world = generate_world(WorldConfig(num_persons=20, seed=33))
    base, held = holdout_split(world, 2)
    split = make_label_split(base, PLATFORM_PAIRS, seed=33)
    linker = HydraLinker(seed=33, num_topics=8, max_lda_docs=1500)
    linker.fit(
        base, split.labeled_positive, split.labeled_negative, PLATFORM_PAIRS
    )
    artifact = tmp_path_factory.mktemp("artifact")
    save_linker(linker, artifact)
    return pickle.dumps(linker), artifact, world, held


def _clone_service(fitted_blob, **kwargs) -> LinkageService:
    kwargs.setdefault("batch_size", 64)
    return LinkageService(pickle.loads(fitted_blob[0]), **kwargs)


def _arrive(fitted_blob, service, ref):
    """Transplant ``ref`` into the service world and ingest it (logged)."""
    _, _, world, _ = fitted_blob
    moved = transplant_account(world, service.world, *ref)
    service.add_accounts([moved], score=False)
    return moved


def _record(op, epoch, ref=("facebook", "fb_x")):
    return WalRecord(op=op, epoch=epoch, refs=(tuple(ref),), ts=time.time())


# ----------------------------------------------------------------------
# WalTailer
# ----------------------------------------------------------------------
class TestWalTailer:
    def test_tail_sees_appends_incrementally(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        tailer = WalTailer(tmp_path / "wal")
        assert tailer.poll() == ()
        wal.append(_record("ingest", 1))
        wal.append(_record("ingest", 2))
        got = tailer.poll()
        assert [(r.op, r.epoch) for r in got] == [("ingest", 1), ("ingest", 2)]
        assert tailer.poll() == ()  # drained: nothing new
        wal.append(_record("remove", 3))
        assert [(r.op, r.epoch) for r in tailer.poll()] == [("remove", 3)]
        wal.close()

    def test_missing_directory_is_empty_not_error(self, tmp_path):
        tailer = WalTailer(tmp_path / "never_created")
        assert tailer.poll() == ()

    def test_cursor_survives_restart(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        cursor_file = tmp_path / "cursor.json"
        tailer = WalTailer(tmp_path / "wal", cursor_file)
        for epoch in (1, 2, 3):
            wal.append(_record("ingest", epoch))
        assert len(tailer.poll()) == 3
        tailer.commit()
        assert load_cursor(cursor_file) == tailer.cursor

        wal.append(_record("ingest", 4))
        resumed = WalTailer(tmp_path / "wal", cursor_file)
        assert resumed.resumed
        assert [(r.op, r.epoch) for r in resumed.poll()] == [("ingest", 4)]
        wal.close()

    def test_tail_follows_segment_rotation(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=256)
        tailer = WalTailer(tmp_path / "wal")
        seen = []
        for epoch in range(1, 21):
            wal.append(_record("ingest", epoch))
            seen.extend(tailer.poll())
        seen.extend(tailer.poll())
        assert [r.epoch for r in seen] == list(range(1, 21))
        assert tailer.cursor.segment > 0  # it really crossed segments
        wal.close()

    def test_torn_tail_parks_then_resumes(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(_record("ingest", 1))
        wal.close()
        segment = sorted((tmp_path / "wal").glob("*.wal"))[-1]
        whole = segment.read_bytes()
        # re-append record 1's frame, then cut it mid-frame: a torn write
        frame = whole[12:]
        segment.write_bytes(whole + frame[: len(frame) // 2])

        tailer = WalTailer(tmp_path / "wal")
        got = tailer.poll()
        assert [r.epoch for r in got] == [1]
        assert tailer.last_torn
        parked = tailer.cursor
        assert tailer.poll() == ()  # still parked before the torn bytes

        segment.write_bytes(whole + frame)  # the write completes
        got = tailer.poll()
        assert [r.epoch for r in got] == [1]
        assert not tailer.last_torn
        assert tailer.cursor != parked

    def test_seek_repositions(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        for epoch in (1, 2):
            wal.append(_record("ingest", epoch))
        tailer = WalTailer(tmp_path / "wal")
        assert len(tailer.poll()) == 2
        tailer.seek(WalCursor())
        assert [r.epoch for r in tailer.poll()] == [1, 2]
        wal.close()


# ----------------------------------------------------------------------
# abort cancellation (the write-ahead race, in isolation)
# ----------------------------------------------------------------------
class TestCancelAborts:
    def test_abort_cancels_preceding_same_epoch(self):
        records = [_record("ingest", 1), _record("ingest", 2),
                   _record("abort", 2)]
        effective, resync = _cancel_aborts(records, 0)
        assert [(r.op, r.epoch) for r in effective] == [("ingest", 1)]
        assert not resync

    def test_unmatched_future_abort_is_dropped(self):
        # the abort's victim was never read (e.g. polled mid-append):
        # dropping it is safe because the victim will never apply either
        effective, resync = _cancel_aborts([_record("abort", 5)], 0)
        assert effective == []
        assert not resync

    def test_abort_of_applied_epoch_forces_resync(self):
        effective, resync = _cancel_aborts([_record("abort", 3)], 3)
        assert resync


# ----------------------------------------------------------------------
# FollowerService
# ----------------------------------------------------------------------
class TestFollowerService:
    def test_bit_identical_through_live_ingest(self, fitted_blob, tmp_path):
        _, artifact, _, held = fitted_blob
        wal_dir = tmp_path / "wal"
        primary = _clone_service(fitted_blob, wal=WriteAheadLog(wal_dir))
        follower = FollowerService(artifact, wal_dir, batch_size=64)
        assert follower.registry_epoch == primary.registry_epoch == 0

        for ref in held:
            _arrive(fitted_blob, primary, ref)
            follower.poll()
            follower.apply_pending()
            assert follower.registry_epoch == primary.registry_epoch
            assert follower.top_k(*PAIR, k=8) == primary.top_k(*PAIR, k=8)

        pairs = sorted(primary.linker.candidates_[PAIR].pairs)[:16]
        assert np.array_equal(
            np.asarray(follower.score_pairs(pairs)),
            np.asarray(primary.score_pairs(pairs)),
        )
        platform, account_id = held[0]
        assert follower.link_account(
            platform, account_id
        ) == primary.link_account(platform, account_id)

        primary.remove_account(tuple(held[0]))
        follower.poll()
        follower.apply_pending()
        assert follower.registry_epoch == primary.registry_epoch
        assert follower.top_k(*PAIR, k=8) == primary.top_k(*PAIR, k=8)
        follower.close()
        primary.close()

    def test_writes_rejected(self, fitted_blob, tmp_path):
        _, artifact, _, held = fitted_blob
        wal_dir = tmp_path / "wal"
        primary = _clone_service(fitted_blob, wal=WriteAheadLog(wal_dir))
        with FollowerService(artifact, wal_dir, batch_size=64) as follower:
            with pytest.raises(ReplicaReadOnlyError):
                follower.add_accounts([])
            with pytest.raises(ReplicaReadOnlyError):
                follower.remove_account(tuple(held[0]))
        primary.close()

    def test_status_reports_honest_lag(self, fitted_blob, tmp_path):
        _, artifact, _, held = fitted_blob
        wal_dir = tmp_path / "wal"
        primary = _clone_service(fitted_blob, wal=WriteAheadLog(wal_dir))
        follower = FollowerService(
            artifact, wal_dir, batch_size=64, poll=False
        )
        _arrive(fitted_blob, primary, held[0])
        _arrive(fitted_blob, primary, held[1])
        follower.poll()
        status = follower.status(poll=False)
        assert status["epoch"] == 0
        assert status["lag_records"] == 2
        assert status["lag_seconds"] is not None and status["lag_seconds"] >= 0
        follower.apply_pending()
        status = follower.status(poll=False)
        assert status["epoch"] == 2
        assert status["lag_records"] == 0
        assert status["records_applied"] == 2
        follower.close()
        primary.close()

    def test_checkpoint_resume_skips_replay(self, fitted_blob, tmp_path):
        _, artifact, _, held = fitted_blob
        wal_dir = tmp_path / "wal"
        state = tmp_path / "state"
        primary = _clone_service(fitted_blob, wal=WriteAheadLog(wal_dir))
        follower = FollowerService(
            artifact, wal_dir, state_dir=state, batch_size=64
        )
        for ref in held:
            _arrive(fitted_blob, primary, ref)
        follower.poll()
        follower.apply_pending()
        follower.checkpoint()
        checkpoint_epoch = follower.registry_epoch
        follower.close()

        primary.remove_account(tuple(held[0]))
        resumed = FollowerService(
            artifact, wal_dir, state_dir=state, batch_size=64
        )
        status = resumed.status(poll=False)
        assert status["resumed"]
        assert status["base_epoch"] == checkpoint_epoch
        assert resumed.registry_epoch == primary.registry_epoch
        assert resumed.top_k(*PAIR, k=8) == primary.top_k(*PAIR, k=8)
        resumed.close()
        primary.close()

    def test_aborted_mutation_never_applies(
        self, fitted_blob, tmp_path, monkeypatch
    ):
        _, artifact, _, held = fitted_blob
        wal_dir = tmp_path / "wal"
        primary = _clone_service(fitted_blob, wal=WriteAheadLog(wal_dir))
        follower = FollowerService(artifact, wal_dir, batch_size=64)
        _arrive(fitted_blob, primary, held[0])

        def broken_ingest(refs):
            raise RuntimeError("apply broke")

        monkeypatch.setattr(primary.linker, "ingest_accounts", broken_ingest)
        _, _, world, _ = fitted_blob
        doomed = transplant_account(world, primary.world, *held[1])
        with pytest.raises(RuntimeError, match="apply broke"):
            primary.add_accounts([doomed], score=False)
        monkeypatch.undo()

        # the log now holds ingest(1), ingest(2), abort(2); the follower
        # must land on epoch 1 with the aborted mutation skipped.  (Score
        # parity is NOT asserted at this point: the primary keeps the
        # doomed account's *world registration* — graph edges added
        # before the failed apply — which recovery/replay by design does
        # not reproduce.  The follower matches the canonical recovered
        # state, same as `repro recover` would.)
        follower.poll()
        follower.apply_pending()
        assert follower.registry_epoch == primary.registry_epoch == 1

        # the primary's retry reuses epoch 2; once it lands, the packed
        # states coincide again and reads are bit-identical
        primary.add_accounts([doomed], score=False)
        follower.poll()
        follower.apply_pending()
        assert follower.registry_epoch == primary.registry_epoch == 2
        assert follower.top_k(*PAIR, k=8) == primary.top_k(*PAIR, k=8)
        follower.close()
        primary.close()

    def test_abort_of_applied_record_forces_converging_resync(
        self, fitted_blob, tmp_path, monkeypatch
    ):
        """Racing ahead of the primary's abort resyncs back to canon.

        The write-ahead discipline lets the follower poll a record the
        primary has not applied yet.  If the follower applies it and the
        primary then *aborts* it (a failure the follower did not share),
        the only road back is a full resync — which must converge.
        """
        _, artifact, _, held = fitted_blob
        wal_dir = tmp_path / "wal"
        primary = _clone_service(fitted_blob, wal=WriteAheadLog(wal_dir))
        follower = FollowerService(artifact, wal_dir, batch_size=64)

        def broken_ingest(refs):
            raise RuntimeError("apply broke")

        monkeypatch.setattr(primary.linker, "ingest_accounts", broken_ingest)
        _, _, world, _ = fitted_blob
        doomed = transplant_account(world, primary.world, *held[0])

        real_append = primary.wal.append
        polled_between = []

        def racing_append(record):
            real_append(record)
            if record.op == "ingest":
                # the follower polls between the write-ahead append and
                # the abort: it sees a doomed record with no abort yet,
                # and (its own apply working fine) applies it
                follower.poll()
                polled_between.append(follower.apply_pending())

        monkeypatch.setattr(primary.wal, "append", racing_append)
        with pytest.raises(RuntimeError, match="apply broke"):
            primary.add_accounts([doomed], score=False)
        monkeypatch.undo()
        monkeypatch.undo()

        assert polled_between and follower.registry_epoch == 1  # raced ahead
        follower.poll()
        follower.apply_pending()
        assert follower.registry_epoch == primary.registry_epoch == 0
        assert follower.status(poll=False)["resyncs"] == 1
        follower.close()
        primary.close()

    def test_failing_head_record_parks_until_abort(
        self, fitted_blob, tmp_path, monkeypatch
    ):
        """A record that fails to apply on the follower too parks cleanly.

        When the apply failure is deterministic (both sides hit it), the
        follower must not crash or resync: the head record parks, the
        primary's abort arrives, and the pending mutation cancels.
        """
        _, artifact, _, held = fitted_blob
        wal_dir = tmp_path / "wal"
        primary = _clone_service(fitted_blob, wal=WriteAheadLog(wal_dir))
        follower = FollowerService(artifact, wal_dir, batch_size=64)

        def broken_ingest(refs):
            raise RuntimeError("apply broke")

        monkeypatch.setattr(primary.linker, "ingest_accounts", broken_ingest)
        monkeypatch.setattr(
            follower.linker, "ingest_accounts", broken_ingest
        )
        _, _, world, _ = fitted_blob
        doomed = transplant_account(world, primary.world, *held[0])

        real_append = primary.wal.append

        def racing_append(record):
            real_append(record)
            if record.op == "ingest":
                follower.poll()
                follower.apply_pending()  # fails, parks the record

        monkeypatch.setattr(primary.wal, "append", racing_append)
        with pytest.raises(RuntimeError, match="apply broke"):
            primary.add_accounts([doomed], score=False)
        monkeypatch.undo()
        monkeypatch.undo()
        monkeypatch.undo()

        follower.poll()
        follower.apply_pending()  # the abort cancels the parked record
        status = follower.status(poll=False)
        assert follower.registry_epoch == primary.registry_epoch == 0
        assert status["resyncs"] == 0
        assert status["lag_records"] == 0
        follower.close()
        primary.close()


# ----------------------------------------------------------------------
# ReplicaRouter
# ----------------------------------------------------------------------
class TestReplicaRouter:
    def test_rotation_includes_local_slot(self):
        router = ReplicaRouter(["127.0.0.1:1", "127.0.0.1:2"])
        picks = [router.pick() for _ in range(6)]
        addresses = [p.address if p else None for p in picks]
        assert addresses.count(None) == 2
        assert addresses.count("127.0.0.1:1") == 2
        assert addresses.count("127.0.0.1:2") == 2
        router.close()

    def test_dead_endpoint_sits_out_then_half_opens(self):
        router = ReplicaRouter(
            ["127.0.0.1:1"], retry_dead_seconds=0.05
        )
        endpoint = router.endpoints[0]
        endpoint.mark_dead()
        assert all(router.pick() is None for _ in range(4))
        time.sleep(0.06)
        picks = [router.pick() for _ in range(2)]
        assert any(p is endpoint for p in picks)  # the half-open probe
        router.close()

    def test_stale_follower_skipped_for_min_epoch(self):
        router = ReplicaRouter(["127.0.0.1:1"])
        endpoint = router.endpoints[0]
        endpoint.observe_epoch(3)
        assert any(
            router.pick(min_epoch=3) is endpoint for _ in range(2)
        )
        assert all(router.pick(min_epoch=4) is None for _ in range(4))
        assert endpoint.stale_skips > 0
        router.close()

    def test_connection_error_marks_dead(self, tmp_path):
        # nothing listens on this port: the forward must fail fast,
        # mark the endpoint dead, and raise ReplicaUnavailable
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # released: connecting now fails
        router = ReplicaRouter([f"127.0.0.1:{port}"], timeout=0.5)
        endpoint = router.endpoints[0]
        with pytest.raises(ReplicaUnavailable):
            router.call(endpoint, "top_k", {
                "platform_a": "facebook", "platform_b": "twitter", "k": 2,
            })
        assert not endpoint.alive
        router.close()

    def test_unforwardable_op_rejected(self):
        router = ReplicaRouter(["127.0.0.1:1"])
        with pytest.raises(ValueError):
            router.call(router.endpoints[0], "ingest", {})
        router.close()


def test_parse_endpoint():
    assert parse_endpoint("10.0.0.5:8099") == ("10.0.0.5", 8099)
    assert parse_endpoint(":8100") == ("127.0.0.1", 8100)
    assert parse_endpoint("[::1]:9000") == ("::1", 9000)
    with pytest.raises(ValueError):
        parse_endpoint("no-port")


# ----------------------------------------------------------------------
# replicated gateway topology over HTTP
# ----------------------------------------------------------------------
@pytest.fixture()
def replicated(fitted_blob, tmp_path):
    """primary gateway (WAL, read_replicas) + one live follower gateway."""
    _, artifact, _, _ = fitted_blob
    wal_dir = tmp_path / "wal"
    primary_service = _clone_service(
        fitted_blob, wal=WriteAheadLog(wal_dir)
    )
    follower_service = FollowerService(artifact, wal_dir, batch_size=64)
    follower_gw = GatewayThread(
        follower_service,
        GatewayConfig(replica_poll_ms=5.0, min_epoch_wait_ms=2000.0),
    ).start()
    primary_gw = GatewayThread(
        primary_service,
        GatewayConfig(
            read_replicas=(f"{follower_gw.host}:{follower_gw.port}",),
            replica_retry_dead_seconds=0.2,
        ),
    ).start()
    try:
        yield primary_gw, follower_gw, primary_service, follower_service
    finally:
        primary_gw.stop()
        follower_gw.stop()


class TestReplicatedGateway:
    def test_reads_spread_and_stay_bit_identical(
        self, replicated, fitted_blob
    ):
        primary_gw, follower_gw, primary_service, _ = replicated
        for ref in fitted_blob[3]:
            _arrive(fitted_blob, primary_service, ref)
        target_epoch = primary_service.registry_epoch
        assert target_epoch == len(fitted_blob[3])
        with GatewayClient(primary_gw.host, primary_gw.port) as client:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.replicas()["replicas"][0]["epoch"] == target_epoch:
                    break
                time.sleep(0.02)
            # 8 reads rotate across {local, follower}; every answer must
            # be byte-for-byte the same links at the same epoch
            responses = [client.top_k(*PAIR, k=8) for _ in range(8)]
            for response in responses:
                assert response["epoch"] == target_epoch
                assert response["links"] == responses[0]["links"]
            # uncached score_pairs re-scores on whichever backend serves it
            pairs = primary_service.candidate_pairs(PAIR)[:16]
            expected = primary_service.score_pairs(pairs)
            for _ in range(4):
                scores = client.score_pairs(pairs)["scores"]
                assert np.array_equal(np.array(scores), expected)
            router = primary_gw.gateway._router
            assert router.endpoints[0].forwards > 0
            assert router.local_reads > 0

    def test_replicas_endpoint_reports_lag_and_liveness(self, replicated):
        primary_gw, follower_gw, _, follower_service = replicated
        with GatewayClient(primary_gw.host, primary_gw.port) as client:
            payload = client.replicas()
            rows = payload["replicas"]
            assert len(rows) == 1
            assert rows[0]["alive"]
            assert rows[0]["endpoint"] == (
                f"{follower_gw.host}:{follower_gw.port}"
            )
            assert rows[0]["epoch"] == follower_service.registry_epoch
            assert rows[0]["pid"] is not None
        with GatewayClient(follower_gw.host, follower_gw.port) as client:
            payload = client.replicas()
            assert payload["replica"]["epoch"] == (
                follower_service.registry_epoch
            )

    def test_follower_gateway_rejects_writes(self, replicated, fitted_blob):
        _, follower_gw, _, _ = replicated
        _, _, _, held = fitted_blob
        with GatewayClient(follower_gw.host, follower_gw.port) as client:
            with pytest.raises(GatewayError) as error:
                client.ingest([list(held[0])], score=False)
            assert error.value.status == 409
            assert error.value.code == "conflict"

    def test_min_epoch_read_your_writes(self, replicated, fitted_blob):
        """A floored read never observes an epoch below the floor."""
        primary_gw, follower_gw, primary_service, _ = replicated
        _, _, world, held = fitted_blob
        transplant_account(world, primary_service.world, *held[0])
        with GatewayClient(primary_gw.host, primary_gw.port) as client:
            report = client.ingest([list(held[0])], score=False)
            floor = report["epoch"]
            assert client.last_write_epoch == floor
            for _ in range(6):
                response = client.top_k(*PAIR, k=4, min_epoch=floor)
                assert response["epoch"] >= floor
        # directly against the follower: the floor holds there too
        with GatewayClient(follower_gw.host, follower_gw.port) as client:
            response = client.top_k(*PAIR, k=4, min_epoch=floor)
            assert response["epoch"] >= floor

    def test_unreachable_floor_is_412_on_follower(self, replicated):
        _, follower_gw, _, _ = replicated
        with GatewayClient(
            follower_gw.host, follower_gw.port
        ) as client:
            with pytest.raises(GatewayError) as error:
                client.top_k(*PAIR, k=4, min_epoch=10_000)
            assert error.value.status == 412
            assert error.value.code == "stale_replica"

    def test_bad_min_epoch_header_is_400(self, replicated):
        import http.client

        primary_gw, _, _, _ = replicated
        conn = http.client.HTTPConnection(
            primary_gw.host, primary_gw.port, timeout=5
        )
        try:
            conn.request(
                "GET",
                "/top_k?platform_a=facebook&platform_b=twitter&k=2",
                headers={"X-Min-Epoch": "wat"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert b"bad_min_epoch" in response.read()
        finally:
            conn.close()

    def test_killed_follower_costs_zero_failed_reads(self, replicated):
        primary_gw, follower_gw, _, _ = replicated
        follower_gw.stop()  # the follower disappears mid-traffic
        with GatewayClient(primary_gw.host, primary_gw.port) as client:
            for _ in range(6):
                response = client.top_k(*PAIR, k=4)
                assert "links" in response
            rows = client.replicas()["replicas"]
            assert rows[0]["alive"] is False


# ----------------------------------------------------------------------
# client-side GET failover
# ----------------------------------------------------------------------
class TestClientFailover:
    def test_get_fails_over_to_next_read_endpoint(self, fitted_blob):
        import socket

        service = _clone_service(fitted_blob)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with GatewayThread(service) as gateway:
            client = GatewayClient(
                "127.0.0.1",
                dead_port,  # primary endpoint is dead
                read_endpoints=(f"{gateway.host}:{gateway.port}",),
                timeout=1.0,
            )
            response = client.top_k(*PAIR, k=4)
            assert "links" in response
            assert client.retries > 0  # the failover was counted
            # non-GETs never fail over: they must see the dead primary
            with pytest.raises(OSError):
                client.ingest([["facebook", "fb_nope"]], score=False)
            client.close()


# ----------------------------------------------------------------------
# loadgen staleness accounting
# ----------------------------------------------------------------------
class TestLoadgenStaleness:
    def test_staleness_fields_and_min_epoch_mode(self, fitted_blob):
        service = _clone_service(fitted_blob)
        with GatewayThread(service) as gateway:
            with GatewayClient(gateway.host, gateway.port) as seed_client:
                catalog = seed_client.candidates(limit=50)
            ops = plan_workload(
                catalog,
                mix=WorkloadMix(
                    score_pairs=0.7, top_k=0.2, link_account=0.1
                ),
                num_requests=30,
                pairs_per_request=2,
                seed=5,
            )
            report = run_load(
                gateway.host, gateway.port, ops,
                concurrency=4, min_epoch=True,
            )
            assert report.failed == 0
            assert report.min_epoch_mode
            assert report.min_epoch_violations == 0
            assert report.staleness_max == 0  # no writes: nothing stale
            blob = report.as_dict()
            for key in (
                "min_epoch_mode", "stale_reads", "staleness_max",
                "staleness_mean", "min_epoch_violations",
            ):
                assert key in blob

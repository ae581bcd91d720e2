"""Tests for the durable ingest write-ahead log (:mod:`repro.wal`).

Layered like the package: framing/rotation/torn-tail mechanics run on
synthetic records with no model anywhere near them; the service
integration and recovery-parity suites fit one real linker (module
scoped) and prove the durability contract end to end — every mutation
is appended *before* it is applied, a failed apply is cancelled by an
abort record, and :func:`repro.wal.recover` reconstructs a crashed
service bit-identical (``score_pairs`` / ``top_k``) to one that never
crashed, at the exact logged epoch.

The crash-for-real scenarios (``kill -9`` mid-ingest, swap under load)
live in ``tests/test_chaos.py``; this module covers everything that can
be proven in-process.
"""

import json
import pickle

import numpy as np
import pytest

from repro.core import HydraLinker
from repro.datagen import WorldConfig, generate_world
from repro.eval.harness import make_label_split
from repro.gateway import GatewayClient, GatewayConfig, GatewayThread
from repro.persist import save_linker
from repro.serving import LinkageService, holdout_split
from repro.socialnet import transplant_account
from repro.wal import (
    FaultInjected,
    RecoveryError,
    WalError,
    WalRecord,
    WriteAheadLog,
    apply_payload,
    capture_payload,
    faults,
    payload_from_json,
    payload_to_json,
    read_wal,
    recover,
    replay_records,
)

PLATFORM_PAIRS = [("facebook", "twitter")]


def _record(epoch: int, op: str = "ingest") -> WalRecord:
    return WalRecord(
        op=op, epoch=epoch, refs=(("facebook", f"fa{epoch:06d}"),)
    )


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.reset()
    yield
    faults.reset()


# ----------------------------------------------------------------------
# framing, rotation, torn tails — no model involved
# ----------------------------------------------------------------------
class TestWalFraming:
    def test_empty_directory_recovers_nothing(self, tmp_path):
        recovered = read_wal(tmp_path / "missing")
        assert recovered.records == ()
        assert recovered.last_epoch == 0
        assert not recovered.truncated

    def test_append_read_roundtrip(self, tmp_path):
        records = [_record(epoch) for epoch in range(1, 6)]
        with WriteAheadLog(tmp_path / "wal") as wal:
            for record in records:
                wal.append(record)
            assert wal.records_appended == 5
            assert wal.last_epoch == 5
        recovered = read_wal(tmp_path / "wal")
        assert recovered.records == tuple(records)
        assert recovered.last_epoch == 5
        assert not recovered.truncated
        assert recovered.segments == 1

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            WriteAheadLog(tmp_path / "wal", fsync="sometimes")

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.close()
        wal.close()  # idempotent
        assert wal.closed
        with pytest.raises(WalError, match="closed"):
            wal.append(_record(1))

    def test_torn_tail_recovers_longest_valid_prefix(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            for epoch in range(1, 4):
                wal.append(_record(epoch))
        segment = next((tmp_path / "wal").glob("*.wal"))
        with open(segment, "ab") as fh:
            fh.write(b"\x40\x00\x00\x00garbage")  # short frame: torn write
        recovered = read_wal(tmp_path / "wal")
        assert [r.epoch for r in recovered.records] == [1, 2, 3]
        assert recovered.truncated

    def test_bit_flip_in_payload_fails_crc(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(_record(1))
            wal.append(_record(2))
        segment = next((tmp_path / "wal").glob("*.wal"))
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF  # flip a byte inside the last record's payload
        segment.write_bytes(bytes(data))
        recovered = read_wal(tmp_path / "wal")
        assert [r.epoch for r in recovered.records] == [1]
        assert recovered.truncated

    def test_reopen_truncates_torn_tail_and_appends(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            for epoch in range(1, 4):
                wal.append(_record(epoch))
        segment = next((tmp_path / "wal").glob("*.wal"))
        with open(segment, "ab") as fh:
            fh.write(b"torn!")
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert wal.last_epoch == 3  # recovered, tail dropped
            wal.append(_record(4))
        recovered = read_wal(tmp_path / "wal")
        assert [r.epoch for r in recovered.records] == [1, 2, 3, 4]
        assert not recovered.truncated  # the reopen healed the log

    def test_reopen_heals_headerless_segment(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(_record(1))
        # a crash right after segment creation: file exists, header torn
        (tmp_path / "wal" / "00000002.wal").write_bytes(b"REPRO")
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert wal.last_epoch == 1
            wal.append(_record(2))
        recovered = read_wal(tmp_path / "wal")
        assert [r.epoch for r in recovered.records] == [1, 2]
        assert not recovered.truncated

    def test_corrupt_non_final_segment_refuses_append(self, tmp_path):
        with WriteAheadLog(
            tmp_path / "wal", segment_max_bytes=256
        ) as wal:
            for epoch in range(1, 10):
                wal.append(_record(epoch))
        segments = sorted((tmp_path / "wal").glob("*.wal"))
        assert len(segments) > 2
        data = bytearray(segments[0].read_bytes())
        data[-1] ^= 0xFF
        segments[0].write_bytes(bytes(data))
        # readers stop at the corruption (lost history is truncated) ...
        assert read_wal(tmp_path / "wal").truncated
        # ... but a writer must not resume on top of a hole
        with pytest.raises(WalError, match="non-final"):
            WriteAheadLog(tmp_path / "wal", segment_max_bytes=256)

    def test_rotation_spans_segments(self, tmp_path):
        with WriteAheadLog(
            tmp_path / "wal", segment_max_bytes=256
        ) as wal:
            for epoch in range(1, 10):
                wal.append(_record(epoch))
        recovered = read_wal(tmp_path / "wal")
        assert [r.epoch for r in recovered.records] == list(range(1, 10))
        assert recovered.segments > 1

    def test_reopen_resumes_numbering_across_segments(self, tmp_path):
        with WriteAheadLog(
            tmp_path / "wal", segment_max_bytes=256
        ) as wal:
            for epoch in range(1, 6):
                wal.append(_record(epoch))
            segments_before = wal._segment_index
        with WriteAheadLog(
            tmp_path / "wal", segment_max_bytes=256
        ) as wal:
            assert wal._segment_index == segments_before
            for epoch in range(6, 10):
                wal.append(_record(epoch))
        recovered = read_wal(tmp_path / "wal")
        assert [r.epoch for r in recovered.records] == list(range(1, 10))

    def test_snapshot_reads_while_open(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", fsync="never") as wal:
            wal.append(_record(1))
            snap = wal.snapshot()
            assert [r.epoch for r in snap.records] == [1]
            wal.append(_record(2))
            assert [r.epoch for r in wal.snapshot().records] == [1, 2]

    def test_abort_cancels_preceding_record(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(_record(1))
            wal.append(_record(2))
            wal.append(_record(2, op="abort"))
            wal.append(_record(2))  # the retry that succeeded
        effective = read_wal(tmp_path / "wal").effective_records()
        assert [(r.op, r.epoch) for r in effective] == [
            ("ingest", 1), ("ingest", 2),
        ]

    def test_fsync_always_leaves_no_unsynced_bytes(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", fsync="always") as wal:
            wal.append(_record(1))
            assert wal._unsynced == 0
        with WriteAheadLog(
            tmp_path / "wal2", fsync="batch", fsync_batch_bytes=1 << 20
        ) as wal:
            wal.append(_record(1))
            assert wal._unsynced > 0  # batched: below the threshold
            wal.sync()
            assert wal._unsynced == 0


# ----------------------------------------------------------------------
# fault-injection registry
# ----------------------------------------------------------------------
class TestFaultPoints:
    def test_arm_and_trip_error(self):
        faults.arm("wal.fsync", "error")
        assert faults.armed("wal.fsync")
        with pytest.raises(FaultInjected):
            faults.trip("wal.fsync")
        assert not faults.armed("wal.fsync")  # one-shot
        assert faults.trip("wal.fsync") is None

    def test_nth_trip_fires_on_schedule(self):
        faults.arm("wal.append", "error", nth=3)
        assert faults.trip("wal.append") is None
        assert faults.trip("wal.append") is None
        with pytest.raises(FaultInjected):
            faults.trip("wal.append")

    def test_arm_from_env_grammar(self):
        count = faults.arm_from_env(
            {"REPRO_FAULTS": "wal.append:torn:5, swap.cutover:error"}
        )
        assert count == 2
        assert faults.armed("wal.append")
        assert faults.armed("swap.cutover")
        faults.reset()
        assert not faults.armed("wal.append")

    def test_arm_from_env_rejects_bad_entries(self):
        with pytest.raises(ValueError, match="site:action"):
            faults.arm_from_env({"REPRO_FAULTS": "justasite"})
        with pytest.raises(ValueError, match="unknown fault action"):
            faults.arm_from_env({"REPRO_FAULTS": "wal.append:explode"})

    def test_torn_append_leaves_partial_frame(self, tmp_path, monkeypatch):
        # stand in for SIGKILL so the tear is observable in-process
        class _Died(BaseException):
            pass

        def fake_crash():
            raise _Died()

        monkeypatch.setattr(faults, "crash", fake_crash)
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(_record(1))
        faults.arm("wal.append", "torn", nth=1)
        with pytest.raises(_Died):
            wal.append(_record(2))
        recovered = read_wal(tmp_path / "wal")
        assert [r.epoch for r in recovered.records] == [1]
        assert recovered.truncated  # the half-frame is on disk
        # a reopening writer heals the tear and resumes
        with WriteAheadLog(tmp_path / "wal") as healed:
            healed.append(_record(2))
        assert [
            r.epoch for r in read_wal(tmp_path / "wal").records
        ] == [1, 2]

    def test_fsync_fault_site(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="always")
        faults.arm("wal.fsync", "error")
        with pytest.raises(FaultInjected):
            wal.append(_record(1))
        faults.reset()
        # the record itself landed (append before fsync) — close flushes it
        wal.close()
        assert [r.epoch for r in read_wal(tmp_path / "wal").records] == [1]


# ----------------------------------------------------------------------
# fitted-model fixtures (shared by integration + recovery suites)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fitted_blob(tmp_path_factory):
    """(pickled fitted linker, artifact dir, full world, held-out refs).

    Fitted on the world minus two held-out accounts per platform so the
    tests replay genuine arrivals; the artifact is the recovery base.
    """
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
    blob = fitted_blob[0]
    return LinkageService(pickle.loads(blob), **kwargs)


def _arrive(fitted_blob, service, ref) -> tuple:
    """Transplant ``ref`` into the service world and ingest it (logged)."""
    _, _, world, _ = fitted_blob
    moved = transplant_account(world, service.world, *ref)
    service.add_accounts([moved], score=False)
    return moved


def _candidate_pairs(service):
    return sorted(service.linker.candidates_[tuple(PLATFORM_PAIRS[0])].pairs)


# ----------------------------------------------------------------------
# account payloads
# ----------------------------------------------------------------------
class TestAccountPayload:
    def test_capture_apply_roundtrip(self, fitted_blob):
        service = _clone_service(fitted_blob)
        _, _, world, held = fitted_blob
        ref = transplant_account(world, service.world, *held[0])
        payload = capture_payload(service.world, ref)
        assert payload.ref == ref
        target = _clone_service(fitted_blob)
        assert ref[1] not in target.world.platforms[ref[0]].accounts
        apply_payload(target.world, payload)
        data = target.world.platforms[ref[0]]
        assert ref[1] in data.accounts
        # idempotent: a second apply leaves the world untouched
        apply_payload(target.world, payload)
        assert len(data.accounts) == len(
            service.world.platforms[ref[0]].accounts
        )

    def test_json_codec_roundtrip(self, fitted_blob):
        service = _clone_service(fitted_blob)
        _, _, world, held = fitted_blob
        ref = transplant_account(world, service.world, *held[0])
        payload = capture_payload(service.world, ref)
        wire = json.loads(json.dumps(payload_to_json(payload)))
        decoded = payload_from_json(wire)
        assert decoded.ref == payload.ref
        assert decoded.identity == payload.identity
        assert decoded.interactions == payload.interactions
        assert len(decoded.events) == len(payload.events)
        for got, want in zip(decoded.events, payload.events):
            assert (got.kind, got.timestamp) == (want.kind, want.timestamp)
            assert got.payload == want.payload
        got_profile = decoded.account.profile
        want_profile = payload.account.profile
        assert got_profile.username == want_profile.username
        if want_profile.face_embedding is None:
            assert got_profile.face_embedding is None
        else:
            assert np.allclose(
                got_profile.face_embedding, want_profile.face_embedding
            )

    def test_json_codec_rejects_malformed(self):
        with pytest.raises(ValueError, match="must be an object"):
            payload_from_json(["not", "a", "dict"])
        with pytest.raises(ValueError, match="missing field"):
            payload_from_json({"platform": "facebook"})


# ----------------------------------------------------------------------
# service integration: write-ahead ordering, aborts, lifecycle
# ----------------------------------------------------------------------
class TestServiceWal:
    def test_mutations_append_before_apply(self, fitted_blob, tmp_path):
        _, _, _, held = fitted_blob
        # every fsync policy logs every mutation, one record each
        for fsync in ("never", "batch", "always"):
            wal = WriteAheadLog(tmp_path / fsync, fsync=fsync)
            service = _clone_service(fitted_blob, wal=wal)
            ref_a = _arrive(fitted_blob, service, held[0])
            ref_b = _arrive(fitted_blob, service, held[1])
            service.remove_account(ref_a)
            log = wal.snapshot()
            records = log.records
            assert [(r.op, r.epoch) for r in records] == [
                ("ingest", 1), ("ingest", 2), ("remove", 3),
            ]
            assert not log.truncated
            assert service.registry_epoch == 3
            # ingest records are self-contained; removals log refs only
            assert records[0].payloads[0].ref == ref_a
            assert records[1].payloads[0].ref == ref_b
            assert records[2].refs == (ref_a,)
            assert records[2].payloads is None
            service.close()
            assert wal.closed
            assert read_wal(tmp_path / fsync).last_epoch == 3

    def test_failed_apply_appends_abort(
        self, fitted_blob, tmp_path, monkeypatch
    ):
        wal = WriteAheadLog(tmp_path / "wal")
        service = _clone_service(fitted_blob, wal=wal)
        _, _, _, held = fitted_blob
        _arrive(fitted_blob, service, held[0])

        # make the *apply* step fail after the write-ahead append
        def broken_ingest(refs):
            raise RuntimeError("apply broke")

        monkeypatch.setattr(service.linker, "ingest_accounts", broken_ingest)
        _, _, world, _ = fitted_blob
        doomed = transplant_account(world, service.world, *held[1])
        with pytest.raises(RuntimeError, match="apply broke"):
            service.add_accounts([doomed], score=False)
        monkeypatch.undo()
        assert service.registry_epoch == 1  # the mutation never applied
        snap = wal.snapshot()
        assert [(r.op, r.epoch) for r in snap.records] == [
            ("ingest", 1), ("ingest", 2), ("abort", 2),
        ]
        # replay skips the aborted mutation exactly like the live service
        assert [
            (r.op, r.epoch) for r in snap.effective_records()
        ] == [("ingest", 1)]
        # and the service keeps going: the retry lands at the same epoch
        service.add_accounts([doomed], score=False)
        assert service.registry_epoch == 2
        assert [
            (r.op, r.epoch) for r in wal.snapshot().effective_records()
        ] == [("ingest", 1), ("ingest", 2)]
        service.close()

    def test_unserved_removal_never_touches_the_log(
        self, fitted_blob, tmp_path
    ):
        wal = WriteAheadLog(tmp_path / "wal")
        service = _clone_service(fitted_blob, wal=wal)
        with pytest.raises(KeyError):
            service.remove_account(("facebook", "no-such-account"))
        assert wal.snapshot().records == ()
        service.close()

    def test_attach_detach_lifecycle(self, fitted_blob, tmp_path):
        service = _clone_service(fitted_blob)
        assert service.wal is None
        wal = WriteAheadLog(tmp_path / "wal")
        service.attach_wal(wal)
        service.attach_wal(wal)  # re-attaching the same log is a no-op
        with pytest.raises(RuntimeError, match="already has"):
            service.attach_wal(WriteAheadLog(tmp_path / "other"))
        assert service.detach_wal() is wal
        assert service.wal is None
        assert not wal.closed  # detach hands the log over, never closes
        wal.close()

    def test_epoch_rollover_keeps_wal_open(self, fitted_blob, tmp_path):
        # an epoch bump invalidates the score caches; that must never close
        # the attached log mid-life
        wal = WriteAheadLog(tmp_path / "wal")
        service = _clone_service(fitted_blob, wal=wal)
        pairs = _candidate_pairs(service)
        service.score_pairs(pairs)
        _arrive(fitted_blob, service, fitted_blob[3][0])  # epoch bump
        service.score_pairs(pairs)
        assert not wal.closed
        service.close()
        assert wal.closed


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
class TestRecovery:
    def test_recover_is_bit_identical_at_exact_epoch(
        self, fitted_blob, tmp_path
    ):
        _, artifact, _, held = fitted_blob
        wal = WriteAheadLog(tmp_path / "wal")
        live = _clone_service(fitted_blob, wal=wal)
        refs = [_arrive(fitted_blob, live, ref) for ref in held]
        live.remove_account(refs[0])
        live.add_accounts([refs[0]], score=False)  # re-arrival, same state
        assert live.registry_epoch == len(held) + 2
        pairs = _candidate_pairs(live)
        live_scores = live.score_pairs(pairs)
        live_top = [
            (link.pair, link.score)
            for link in live.top_k(*PLATFORM_PAIRS[0], 10)
        ]
        live.close()  # graceful: every record is on disk

        result = recover(artifact, tmp_path / "wal", reopen=False)
        assert result.base_epoch == 0
        assert result.recovered_epoch == live.registry_epoch
        assert result.records_replayed == live.registry_epoch
        assert not result.truncated_tail
        assert result.service.registry_epoch == live.registry_epoch
        assert _candidate_pairs(result.service) == pairs
        assert np.array_equal(result.service.score_pairs(pairs), live_scores)
        recovered_top = [
            (link.pair, link.score)
            for link in result.service.top_k(*PLATFORM_PAIRS[0], 10)
        ]
        assert recovered_top == live_top

    def test_recover_reopen_resumes_logging(self, fitted_blob, tmp_path):
        _, artifact, _, held = fitted_blob
        wal = WriteAheadLog(tmp_path / "wal")
        live = _clone_service(fitted_blob, wal=wal)
        _arrive(fitted_blob, live, held[0])
        live.close()

        result = recover(artifact, tmp_path / "wal")
        service = result.service
        assert service.wal is not None and not service.wal.closed
        _arrive(fitted_blob, service, held[1])  # logged into the same WAL
        assert service.registry_epoch == 2
        service.close()

        second = recover(artifact, tmp_path / "wal", reopen=False)
        assert second.recovered_epoch == 2
        assert second.records_replayed == 2

    def test_recover_from_torn_tail_stops_at_last_valid_record(
        self, fitted_blob, tmp_path
    ):
        _, artifact, _, held = fitted_blob
        wal = WriteAheadLog(tmp_path / "wal")
        live = _clone_service(fitted_blob, wal=wal)
        for ref in held:
            _arrive(fitted_blob, live, ref)
        live.close()
        segment = max((tmp_path / "wal").glob("*.wal"))
        data = segment.read_bytes()
        segment.write_bytes(data[:-7])  # tear the final record

        result = recover(artifact, tmp_path / "wal", reopen=False)
        assert result.truncated_tail
        assert result.recovered_epoch == len(held) - 1
        assert result.service.registry_epoch == len(held) - 1

    def test_replay_refuses_an_attached_wal(self, fitted_blob, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        service = _clone_service(fitted_blob, wal=wal)
        with pytest.raises(RecoveryError, match="detach"):
            replay_records(service, [], after_epoch=0)
        service.close()

    def test_replay_rejects_unknown_ops(self, fitted_blob):
        service = _clone_service(fitted_blob)
        bogus = WalRecord(op="compact", epoch=1, refs=())
        with pytest.raises(RecoveryError, match="compact"):
            replay_records(service, [bogus], after_epoch=0)


# ----------------------------------------------------------------------
# graceful shutdown through the gateway
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_gateway_stop_flushes_and_closes_the_wal(
        self, fitted_blob, tmp_path
    ):
        wal = WriteAheadLog(
            tmp_path / "wal", fsync="batch", fsync_batch_bytes=1 << 20
        )
        service = _clone_service(fitted_blob, wal=wal)
        _, _, world, held = fitted_blob
        payloads = []
        refs = []
        for ref in held:
            scratch = _clone_service(fitted_blob)
            moved = transplant_account(world, scratch.world, *ref)
            payloads.append(payload_to_json(
                capture_payload(scratch.world, moved)
            ))
            refs.append(moved)
        with GatewayThread(service, GatewayConfig(max_wait_ms=1.0)) as gateway:
            with GatewayClient(gateway.host, gateway.port) as client:
                out = client.ingest(
                    refs, accounts=payloads, score=False
                )
                assert out["epoch"] == 1
        # the context exit ran stop(): the WAL tail is synced and closed
        assert wal.closed
        recovered = read_wal(tmp_path / "wal")
        assert not recovered.truncated
        assert recovered.last_epoch == 1
        assert recovered.records[0].op == "ingest"
        assert len(recovered.records[0].payloads) == len(held)

    def test_service_close_releases_the_wal(self, fitted_blob, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        service = _clone_service(fitted_blob, wal=wal)
        _arrive(fitted_blob, service, fitted_blob[3][0])
        service.close()
        assert wal.closed
        service.close()  # idempotent all the way down

"""Reconstructing a service from a base artifact plus the WAL delta.

:func:`recover` is the crash-recovery entry point (also behind
``repro recover``): load the persisted artifact, replay every effective
logged mutation with an epoch newer than the artifact's, and come back
at the exact pre-crash registry epoch — bit-identical to a service that
never crashed, because ingestion is order- and batch-independent (each
account's derived featurization state is keyed to the account, not the
arrival order) and replay applies the very account payloads the live
service logged.

:func:`replay_wal_delta` is the same replay used *online* by the
gateway's blue/green ``POST /swap``: a freshly loaded refit artifact is
caught up with the mutations the live service absorbed since the refit
snapshot, then takes over serving.  Because a refit restarts epochs at
0 while the log keeps the live service's numbering, replay *adopts* each
record's epoch after applying it — the WAL is the authority on what
``registry_epoch`` means across artifacts and restarts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.service import LinkageService
from repro.wal.log import WalRecord, WriteAheadLog, read_wal
from repro.wal.payload import apply_payload

__all__ = [
    "RecoveryError",
    "RecoveryResult",
    "recover",
    "replay_records",
    "replay_wal_delta",
]


class RecoveryError(RuntimeError):
    """Replay diverged from the logged history."""


@dataclass(frozen=True)
class RecoveryResult:
    """What :func:`recover` reconstructed."""

    service: LinkageService
    base_epoch: int
    recovered_epoch: int
    records_replayed: int
    truncated_tail: bool


def _apply_record(service: LinkageService, record: WalRecord) -> None:
    if record.op == "ingest":
        for payload in record.payloads or ():
            apply_payload(service.world, payload)
        service.add_accounts([tuple(ref) for ref in record.refs], score=False)
    elif record.op == "remove":
        (ref,) = record.refs
        service.remove_account(tuple(ref))
    else:
        raise RecoveryError(f"cannot replay record op {record.op!r}")


def replay_records(
    service: LinkageService, records, *, after_epoch: int
) -> tuple[int, int]:
    """Apply effective ``records`` newer than ``after_epoch`` in order.

    Returns ``(last_applied_epoch, records_applied)``.  Each record must
    advance the service by exactly one mutation; the record's logged
    epoch is then adopted as the service epoch (see module docstring).
    The service must not have a WAL attached while replaying — replay
    re-appending its own input would double the log.
    """
    if service.wal is not None:
        raise RecoveryError("detach the service WAL before replaying into it")
    applied = after_epoch
    count = 0
    for record in records:
        if record.epoch <= applied:
            continue
        before = service.registry_epoch
        _apply_record(service, record)
        if service.registry_epoch != before + 1:
            raise RecoveryError(
                f"replaying epoch {record.epoch} moved the service from "
                f"epoch {before} to {service.registry_epoch}; expected one "
                f"mutation"
            )
        service.linker.ingest_epoch_ = record.epoch
        applied = record.epoch
        count += 1
    return applied, count


def replay_wal_delta(
    service: LinkageService, wal, *, after_epoch: int
) -> tuple[int, int]:
    """Catch ``service`` up with a log's mutations newer than ``after_epoch``.

    ``wal`` is an open :class:`~repro.wal.log.WriteAheadLog` (snapshotted
    tolerantly, so an in-flight append at worst parks in the torn tail
    and is picked up by the next pass) or a log directory path.
    """
    if isinstance(wal, WriteAheadLog):
        recovered = wal.snapshot()
    else:
        recovered = read_wal(wal)
    return replay_records(
        service, recovered.effective_records(), after_epoch=after_epoch
    )


def recover(
    artifact_path,
    wal_path,
    *,
    reopen: bool = True,
    fsync: str = "batch",
) -> RecoveryResult:
    """Load the base artifact and replay the WAL delta on top of it.

    With ``reopen=True`` (the default) the log is reopened for append —
    truncating any torn tail — and attached to the recovered service, so
    serving can resume writing history where the crash cut it off.
    """
    service = LinkageService.from_artifact(artifact_path)
    base_epoch = service.registry_epoch
    recovered = read_wal(wal_path)
    final_epoch, count = replay_records(
        service, recovered.effective_records(), after_epoch=base_epoch
    )
    if reopen:
        service.attach_wal(WriteAheadLog(wal_path, fsync=fsync))
    return RecoveryResult(
        service=service,
        base_epoch=base_epoch,
        recovered_epoch=final_epoch,
        records_replayed=count,
        truncated_tail=recovered.truncated,
    )

"""A read-only replica that stays current by tailing the primary's WAL.

:class:`FollowerService` wraps a private
:class:`~repro.serving.LinkageService` built from the primary's artifact
and keeps it current by replaying the WAL's effective mutations through
the exact machinery crash recovery uses
(:func:`repro.wal.recovery.replay_records`).  Because replay applies the
very account payloads the primary logged, adopts the logged epochs, and
scoring is row-stable, every read —
``score_pairs``, ``top_k``, ``link_account``, exact or approximate — is
**bit-identical to the primary at the same registry epoch**.

The one ordering hazard is the primary's write-ahead discipline: a
record is logged *before* it applies, and a failed apply appends an
``abort``.  A poll landing between the two would hand the follower a
mutation the primary rolled back.  Three defenses, cheapest first:

* in-batch cancellation — an abort arriving in the same batch as its
  target silently annihilates it before anything applies;
* apply-one-record-at-a-time — a record whose apply raises stays at the
  head of the pending queue (the primary's own apply failed the same
  way, so its abort is already in the log and cancels the record on the
  next poll);
* full resync — an abort targeting an *already applied* epoch (or a
  record that keeps failing) means the follower acted on rolled-back
  history: reload the source artifact and replay one atomic tail read
  from the log's beginning.  Rare, expensive, always correct.

Writes are rejected with :class:`ReplicaReadOnlyError` — the gateway
also refuses them up front (409) so a follower endpoint never mutates.

Restart durability: the follower commits its cursor after every applied
batch and (optionally, ``checkpoint_every``) persists its caught-up
linker as a checkpoint artifact plus a manifest.  On construction a
valid checkpoint short-circuits bootstrap — load it, seek the tailer to
the manifest's cursor, replay only the delta.  Correctness never
depends on the checkpoint: any validation failure falls back to a full
bootstrap from the source artifact at cursor zero, and epoch-based
replay (`after_epoch`) makes re-reading old records a no-op.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from pathlib import Path

from repro.persist.artifact import artifact_exists, save_linker
from repro.serving.service import LinkageService
from repro.wal.log import WalRecord
from repro.wal.recovery import replay_records
from repro.wal.tail import WalCursor, tail_read
from repro.replica.tailer import WalTailer

__all__ = ["FollowerService", "ReplicaReadOnlyError"]

_CURSOR_FILE = "cursor.json"
_MANIFEST_FILE = "manifest.json"
_CHECKPOINT_DIR = "checkpoint"

# consecutive apply failures of the same head record before concluding
# no abort is coming and resyncing from the source artifact
_HEAD_FAILURE_LIMIT = 3


class ReplicaReadOnlyError(RuntimeError):
    """A mutation was attempted on a follower replica."""


def _cancel_aborts(records, applied_epoch: int):
    """Resolve abort records against a pending batch.

    Returns ``(effective, resync_needed)`` — ``resync_needed`` is True
    when an abort targets an epoch at or below ``applied_epoch``,
    meaning this follower applied a mutation the primary rolled back.
    """
    effective: list[WalRecord] = []
    for record in records:
        if record.op != "abort":
            effective.append(record)
        elif effective and effective[-1].epoch == record.epoch:
            effective.pop()
        elif record.epoch <= applied_epoch:
            return effective, True
        # else: abort of a record this follower never saw applied — the
        # primary cancelled it before we read it; nothing to undo
    return effective, False


class FollowerService:
    """Read surface of :class:`LinkageService`, fed by tailing a WAL.

    Parameters
    ----------
    artifact:
        The primary's persisted artifact — the replay base.
    wal_dir:
        The primary's live WAL directory to tail.
    state_dir:
        Follower-private directory for the cursor file, checkpoint
        artifact, and manifest.  ``None`` keeps everything in memory
        (no restart resume).
    checkpoint_every:
        Persist a checkpoint after this many newly applied records
        (requires ``state_dir``); ``None`` disables checkpointing.
    poll:
        When True (default), catch up with the log once during
        construction.
    """

    is_follower = True

    def __init__(
        self,
        artifact,
        wal_dir,
        *,
        state_dir=None,
        checkpoint_every: int | None = None,
        poll: bool = True,
    ):
        self.artifact = Path(artifact)
        self.wal_dir = Path(wal_dir)
        self.state_dir = Path(state_dir) if state_dir else None
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint_every is not None and self.state_dir is None:
            raise ValueError("checkpoint_every requires a state_dir")
        self.checkpoint_every = checkpoint_every
        self._lock = threading.RLock()
        self._pending: list[WalRecord] = []
        self._head_failures = 0
        self._records_applied = 0
        self._resyncs = 0
        self._resumed = False
        self._checkpoint_epoch: int | None = None
        self._since_checkpoint = 0
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        cursor_path = (
            self.state_dir / _CURSOR_FILE if self.state_dir else None
        )
        self._tailer = WalTailer(self.wal_dir, cursor_path, resume=False)
        self._inner = self._bootstrap()
        self._applied_epoch = self._inner.registry_epoch
        self.base_epoch = self._applied_epoch
        if poll:
            self.poll()
            self.apply_pending()

    # ------------------------------------------------------------------
    # bootstrap / checkpoint
    # ------------------------------------------------------------------
    def _bootstrap(self) -> LinkageService:
        resumed = self._try_resume()
        if resumed is not None:
            self._resumed = True
            return resumed
        self._tailer.seek(WalCursor())
        return LinkageService.from_artifact(self.artifact)

    def _try_resume(self) -> LinkageService | None:
        """Load the checkpoint named by a valid manifest, else None."""
        if self.state_dir is None:
            return None
        manifest_path = self.state_dir / _MANIFEST_FILE
        checkpoint = self.state_dir / _CHECKPOINT_DIR
        if not manifest_path.is_file() or not artifact_exists(checkpoint):
            return None
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            cursor = WalCursor(
                segment=int(manifest["cursor"]["segment"]),
                offset=int(manifest["cursor"]["offset"]),
            )
            expected = int(manifest["checkpoint_epoch"])
            service = LinkageService.from_artifact(checkpoint)
        except Exception:
            return None
        if service.registry_epoch != expected:
            service.close()
            return None
        self._tailer.seek(cursor)
        self._checkpoint_epoch = expected
        return service

    def checkpoint(self) -> Path:
        """Persist the caught-up linker + manifest for fast restarts.

        Best-effort atomic: the checkpoint directory is staged and
        swapped in, the manifest written last (temp file + rename).  A
        crash mid-swap leaves a manifest/checkpoint mismatch that
        :meth:`_try_resume` detects and ignores.
        """
        if self.state_dir is None:
            raise ValueError("checkpointing requires a state_dir")
        with self._lock:
            target = self.state_dir / _CHECKPOINT_DIR
            staging = self.state_dir / (_CHECKPOINT_DIR + ".tmp")
            if staging.exists():
                shutil.rmtree(staging)
            save_linker(self._inner.linker, staging)
            if target.exists():
                shutil.rmtree(target)
            os.replace(staging, target)
            manifest = {
                "source_artifact": str(self.artifact),
                "wal_dir": str(self.wal_dir),
                "checkpoint_epoch": self._applied_epoch,
                "cursor": self._tailer.committed.as_dict(),
            }
            manifest_path = self.state_dir / _MANIFEST_FILE
            tmp = manifest_path.with_name(_MANIFEST_FILE + ".tmp")
            tmp.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
            os.replace(tmp, manifest_path)
            self._checkpoint_epoch = self._applied_epoch
            self._since_checkpoint = 0
            return target

    # ------------------------------------------------------------------
    # tailing
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Read newly logged records into the pending queue.

        Cheap (one incremental tail read) and safe to call from a
        different thread than :meth:`apply_pending`.  Returns the
        pending-record count.
        """
        with self._lock:
            self._pending.extend(self._tailer.poll())
            return len(self._pending)

    def apply_pending(self) -> int:
        """Replay the pending queue into the inner service.

        Callers that expose reads concurrently must hold their write
        fence around this (the gateway does) — the epoch and scores
        advance together underneath it.  Returns the number of records
        applied (resync counts everything it replayed).
        """
        with self._lock:
            if not self._pending:
                return 0
            effective, resync = _cancel_aborts(
                self._pending, self._applied_epoch
            )
            if resync:
                return self._resync()
            self._pending = effective
            count = 0
            while self._pending:
                record = self._pending[0]
                try:
                    applied, step = replay_records(
                        self._inner, [record],
                        after_epoch=self._applied_epoch,
                    )
                except Exception:
                    # the primary's own apply of this record failed the
                    # same way and its abort is already in the log; wait
                    # for it — unless it never comes, then resync
                    self._head_failures += 1
                    if self._head_failures >= _HEAD_FAILURE_LIMIT:
                        return count + self._resync()
                    break
                self._head_failures = 0
                self._applied_epoch = max(applied, self._applied_epoch)
                self._pending.pop(0)
                count += step
            if not self._pending:
                # read frontier == applied frontier: safe to persist
                self._tailer.commit()
            self._records_applied += count
            self._since_checkpoint += count
            if (
                self.checkpoint_every is not None
                and self._since_checkpoint >= self.checkpoint_every
                and not self._pending
            ):
                self.checkpoint()
            return count

    def _resync(self) -> int:
        """Rebuild from the source artifact + one atomic full tail read."""
        fresh = LinkageService.from_artifact(self.artifact)
        if self.wal_dir.is_dir():
            batch = tail_read(self.wal_dir, WalCursor())
            effective, _ = _cancel_aborts(batch.records, -1)
            applied, count = replay_records(
                fresh, effective, after_epoch=fresh.registry_epoch
            )
            cursor = batch.cursor
        else:
            applied, count, cursor = fresh.registry_epoch, 0, WalCursor()
        stale = self._inner
        self._inner = fresh
        self._applied_epoch = max(applied, fresh.registry_epoch)
        self._pending.clear()
        self._head_failures = 0
        self._tailer.seek(cursor)
        self._tailer.commit(cursor)
        self._records_applied += count
        self._since_checkpoint += count
        self._resyncs += 1
        stale.close()
        return count

    def status(self, *, poll: bool = True) -> dict:
        """Replication health: epoch, lag, cursor, counters."""
        with self._lock:
            if poll:
                self.poll()
            lag_seconds = 0.0
            if self._pending:
                oldest = self._pending[0].ts
                if oldest is not None:
                    lag_seconds = max(0.0, time.time() - oldest)
            return {
                "epoch": self._inner.registry_epoch,
                "base_epoch": self.base_epoch,
                "lag_records": len(self._pending),
                "lag_seconds": round(lag_seconds, 6),
                "records_applied": self._records_applied,
                "resyncs": self._resyncs,
                "resumed": self._resumed,
                "checkpoint_epoch": self._checkpoint_epoch,
                "torn_tail": self._tailer.last_torn,
                "cursor": self._tailer.committed.as_dict(),
                "pid": os.getpid(),
            }

    # ------------------------------------------------------------------
    # read surface (delegates to the inner service)
    # ------------------------------------------------------------------
    @property
    def registry_epoch(self) -> int:
        return self._inner.registry_epoch

    @property
    def world(self):
        return self._inner.world

    @property
    def linker(self):
        return self._inner.linker

    @property
    def wal(self):
        return None

    def platform_pairs(self):
        return self._inner.platform_pairs()

    def num_candidates(self) -> int:
        return self._inner.num_candidates()

    def candidate_pairs(self, key):
        return self._inner.candidate_pairs(key)

    def score_pairs(self, pairs):
        return self._inner.score_pairs(pairs)

    def top_k(self, platform_a, platform_b, k=10, **kwargs):
        return self._inner.top_k(platform_a, platform_b, k, **kwargs)

    def link_account(self, platform, account_id, **kwargs):
        return self._inner.link_account(platform, account_id, **kwargs)

    def account_summary(self, ref):
        return self._inner.account_summary(ref)

    def behavior_distance(self, ref_a, ref_b) -> float:
        return self._inner.behavior_distance(ref_a, ref_b)

    def behavior_distances(self, pairs):
        return self._inner.behavior_distances(pairs)

    def stats(self):
        return self._inner.stats()

    # ------------------------------------------------------------------
    # write surface (rejected)
    # ------------------------------------------------------------------
    def add_accounts(self, *args, **kwargs):
        raise ReplicaReadOnlyError(
            "follower replicas are read-only; send writes to the primary"
        )

    def remove_account(self, *args, **kwargs):
        raise ReplicaReadOnlyError(
            "follower replicas are read-only; send writes to the primary"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._inner.close()

    def close_wal(self) -> None:
        """Follower services never attach a WAL; nothing to close."""

    def __enter__(self) -> "FollowerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

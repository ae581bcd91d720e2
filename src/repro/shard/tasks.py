"""Task functions executed inside per-shard worker processes.

A shard worker is a process initialized by :func:`init_shard_worker`
(artifact path in, a :class:`~repro.serving.LinkageService` over the
shard's packed-subset linker out).  The router (:mod:`repro.shard.router`)
submits these functions over a ``ProcessPoolExecutor``; arguments and
results travel by pickle, so they use native tuples/frozensets/arrays
throughout.  The worker's state lives in a module-level dict so task
functions reach it without re-pickling per call; :func:`swap_state` lets
the router's inline mode run several shards in one process, each under
its own sandboxed dict.

The scatter-gather split: workers **featurize** (row-independent, so a
shard's rows are bit-identical to the single-process rows), the router
**scores** the reassembled matrix through the shared scoring head, whose
decision function is row-stable, so the bytes match the single-process
service's.

Mutations apply on every shard that holds affected state: the *owner*
shard runs the full ingestion path (registry blocking, candidate
maintenance), non-owner shards *ghost-ingest* accounts their residents
interact with (featurizable, not addressable) so plan-time pair fills stay
exact as the graph grows.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from repro.wal.payload import apply_payload, payload_from_json

__all__ = [
    "PairNotServed",
    "StaleShardEpoch",
    "init_shard_worker",
    "shard_distances",
    "shard_featurize",
    "shard_health",
    "shard_ingest",
    "shard_remove",
    "swap_state",
    "worker_state",
]

AccountRef = tuple[str, str]
Pair = tuple[AccountRef, AccountRef]

# featurization is row-independent, so the chunk size never shows up in
# the output bits — chunks exist purely to bound worker memory, and small
# chunks would waste time on vstack copies
FEATURIZE_CHUNK = 4096


class PairNotServed(KeyError):
    """A routed pair references an account outside this shard's served set."""


class StaleShardEpoch(RuntimeError):
    """The worker's registry epoch disagrees with the router's expectation."""


#: Per-process worker state: ``shard_service``, ``shard_meta`` and
#: ``shard_served``, set once by :func:`init_shard_worker`.
_STATE: dict = {}


def swap_state(new: dict) -> dict:
    """Replace the module state dict, returning the previous one.

    The router's inline mode sandboxes each shard's state this way; worker
    processes never need it (each owns the module outright).
    """
    global _STATE
    old = _STATE
    _STATE = new
    return old


def worker_state() -> dict:
    """The live per-process state dict (the task functions mutate it)."""
    return _STATE


def init_shard_worker(path: str) -> None:
    """Load one shard artifact and stand up its serving state.

    The router initializes each per-shard worker process with this
    function: it loads the shard's packed-subset linker, wraps it in a
    full :class:`~repro.serving.LinkageService` (caches, registry,
    candidate maintenance) and records the shard's manifest metadata — in
    particular the *served* account set, the refs whose Eqn 18 fill
    closure is fully resident on this shard and whose pair scores are
    therefore bit-exact.
    """
    from repro.persist import artifact_summary, load_linker
    from repro.serving.service import LinkageService

    with warnings.catch_warnings():
        # the parent process already surfaced any release-skew warning
        # once; K workers repeating it is noise
        warnings.simplefilter("ignore", UserWarning)
        linker = load_linker(path)
    _STATE["shard_service"] = LinkageService(linker)
    meta = artifact_summary(path).get("shard") or {}
    _STATE["shard_meta"] = meta
    _STATE["shard_served"] = {
        (ref[0], ref[1]) for ref in meta.get("served", [])
    }


def _state() -> dict:
    state = _STATE
    if "shard_service" not in state:
        raise RuntimeError(
            "worker was not initialized with init_shard_worker"
        )
    return state


def _check_epoch(service, expected_epoch: int | None) -> None:
    if expected_epoch is None:
        return
    epoch = service.registry_epoch
    if epoch != expected_epoch:
        raise StaleShardEpoch(
            f"shard holds registry epoch {epoch}, router expects "
            f"{expected_epoch}"
        )


def shard_featurize(
    pairs: list[Pair], expected_epoch: int | None = None
) -> np.ndarray:
    """Featurized + missing-filled rows for ``pairs``, in request order.

    Every referenced account must be in this shard's *served* set — the
    refs whose Eqn 18 fill closure is fully resident — so the returned
    rows are bit-identical to the rows a single-process deployment would
    compute.  Featurization is chunked at :data:`FEATURIZE_CHUNK` purely
    to bound memory; rows are row-independent, so chunking does not
    affect the bytes.
    """
    state = _state()
    service = state["shard_service"]
    _check_epoch(service, expected_epoch)
    served = state["shard_served"]
    for pair in pairs:
        for ref in pair:
            if (ref[0], ref[1]) not in served:
                raise PairNotServed(
                    f"account {ref} is not served by shard "
                    f"{state['shard_meta'].get('index')}"
                )
    linker = service.linker
    return np.vstack(
        [
            linker.featurize_pairs(pairs[lo : lo + FEATURIZE_CHUNK])
            for lo in range(0, len(pairs), FEATURIZE_CHUNK)
        ]
    )


def shard_distances(pairs: list[Pair]) -> np.ndarray:
    """Behavior-summary distances for ``pairs`` (served-link metadata)."""
    service = _state()["shard_service"]
    return np.array(
        [service.behavior_distance(*pair) for pair in pairs], dtype=float
    )


def shard_health() -> dict:
    """Liveness probe: the worker's pid, epoch, and inventory counters."""
    state = _state()
    service = state["shard_service"]
    return {
        "shard": state["shard_meta"].get("index"),
        "pid": os.getpid(),
        "epoch": service.registry_epoch,
        "num_candidates": service.num_candidates(),
        "served_accounts": len(state["shard_served"]),
        "resident_accounts": (
            service.linker.pipeline.packed_store.num_accounts
        ),
    }


def _candidate_snapshot(service, platforms: set[str]) -> dict:
    """Current owned candidate state of every affected platform pair."""
    snapshot = {}
    for key, cand in service.linker.candidates_.items():
        if key[0] in platforms or key[1] in platforms:
            snapshot[key] = {
                "pairs": list(cand.pairs),
                "evidence": list(cand.evidence),
            }
    return snapshot


def shard_ingest(
    refs: list[AccountRef],
    raw_payloads: list[dict],
    owned_mask: list[bool],
    expected_epoch: int | None = None,
) -> dict:
    """Apply one routed ingest batch to this shard.

    Owned refs take the full ingestion path
    (:meth:`~repro.serving.LinkageService.add_accounts`: world surgery,
    delta-packing, live blocking, candidate re-ranking).  Non-owned refs
    *ghost-ingest* — world + packed store only, no candidate state — when
    any interaction partner is resident here, so resident accounts' friend
    graphs (and therefore served pairs' Eqn 18 fills) evolve exactly as
    they would in a single-process deployment.  Refs already resident are
    skipped, which makes replay after a shard restart idempotent.

    Payloads apply to the world in request order (later payloads may
    interact with earlier ones); ghosts then pack before owned refs so
    first-touch blocking bootstraps see them, and the whole call reports
    the shard's post-mutation epoch plus the full owned candidate state of
    every affected platform pair for the router's catalog merge.
    """
    state = _state()
    service = state["shard_service"]
    _check_epoch(service, expected_epoch)
    store_rows = service.linker.pipeline.packed_store.row_of
    world = service.linker.world

    owned_new: list[AccountRef] = []
    ghost_new: list[AccountRef] = []
    for ref, raw, owned in zip(refs, raw_payloads, owned_mask):
        ref = (ref[0], ref[1])
        if ref in store_rows:
            continue  # replay idempotency: already applied here
        payload = payload_from_json(raw)
        if payload.ref != ref:
            raise ValueError(
                f"payload describes {payload.ref}, routed as {ref}"
            )
        if owned:
            apply_payload(world, payload)
            owned_new.append(ref)
        else:
            platform_data = world.platforms.get(ref[0])
            if platform_data is None:
                continue
            resident_partners = any(
                other in platform_data.accounts
                for other, _weight in payload.interactions
            )
            if resident_partners:
                apply_payload(world, payload)
                ghost_new.append(ref)

    pairs_added = 0
    pairs_removed = 0
    if ghost_new:
        service.linker.ingest_accounts(ghost_new)
    if owned_new:
        report = service.add_accounts(owned_new, score=False)
        pairs_added = report.pairs_added
        pairs_removed = report.pairs_removed
        state["shard_served"].update(owned_new)

    platforms = {ref[0] for ref in owned_new}
    keys = _candidate_snapshot(service, platforms) if owned_new else {}
    # pairs created against this shard's registry may partner owned
    # accounts with residents outside the plan-time served set; this shard
    # created them, so this shard serves them from now on
    for snapshot in keys.values():
        for pair in snapshot["pairs"]:
            state["shard_served"].update(pair)
    return {
        "owned": owned_new,
        "ghosted": ghost_new,
        "epoch": service.registry_epoch,
        "pairs_added": pairs_added,
        "pairs_removed": pairs_removed,
        "keys": keys,
    }


def shard_remove(
    ref: AccountRef, expected_epoch: int | None = None
) -> dict:
    """Withdraw ``ref`` from this shard, if resident.

    Every shard holding the account (owner, pair partner, or friend-closure
    ghost) drops it from its packed store; shards that also indexed
    candidate pairs through it re-rank those groups, and the resulting
    owned candidate state returns for the router's catalog merge.
    """
    state = _state()
    service = state["shard_service"]
    _check_epoch(service, expected_epoch)
    ref = (ref[0], ref[1])
    if ref not in service.linker.pipeline.packed_store.row_of:
        return {
            "applied": False,
            "removed": 0,
            "epoch": service.registry_epoch,
            "keys": {},
        }
    removed = service.remove_account(ref)
    state["shard_served"].discard(ref)
    return {
        "applied": True,
        "removed": removed,
        "epoch": service.registry_epoch,
        "keys": _candidate_snapshot(service, {ref[0]}),
    }

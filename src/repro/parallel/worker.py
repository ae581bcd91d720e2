"""Per-process worker state and shard task functions.

A worker process is initialized exactly once (via its pool's ``initializer``)
with the heavy, read-only state — a fitted linker for serving, or a fitted
pipeline plus missing-value filler for fit-time featurization.  Shard tasks
then carry only the lightweight per-shard payload (the pair slice and a shard
index) and return a :class:`ShardResult` whose arrays the caller merges in
shard order.

Initializers come in two flavors:

:func:`init_scorer_from_artifact`
    The worker loads the persisted artifact (:mod:`repro.persist`) itself —
    the parent ships only a path, and each process pays one load.  Release-
    skew warnings are suppressed in workers; the parent already warned once.

:func:`init_scorer_from_linker` / :func:`init_featurizer`
    The parent ships the fitted objects directly (pickled by the pool
    machinery under the ``spawn`` start method, inherited copy-on-write
    under ``fork``).

State lives in a module-level dict so task functions can reach it without
re-pickling per shard.  :func:`swap_state` exists for the serial fallback in
:mod:`repro.parallel.engine`, which runs initializer and tasks in the parent
process and must not clobber unrelated state between interleaved executors.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShardResult",
    "featurize_shard",
    "init_featurizer",
    "init_scorer_from_artifact",
    "init_scorer_from_linker",
    "init_shard_worker",
    "score_chunked",
    "score_grouped",
    "score_shard",
    "swap_state",
    "worker_state",
]

#: Per-process worker state: ``linker`` (serving) or ``pipeline`` + ``filler``
#: for fit-time featurization.
_STATE: dict = {}


def swap_state(new: dict) -> dict:
    """Replace the module state dict, returning the previous one.

    Used by the serial fallback to sandbox its state between calls; worker
    processes never need it (each owns the module outright).
    """
    global _STATE
    old = _STATE
    _STATE = new
    return old


def worker_id() -> str:
    """A stable per-process tag for stats attribution."""
    return f"pid:{os.getpid()}"


@dataclass(frozen=True)
class ShardResult:
    """One shard's output: the values plus attribution for stats rollup."""

    index: int
    values: np.ndarray
    num_items: int
    worker: str
    seconds: float


# ----------------------------------------------------------------------
# initializers
# ----------------------------------------------------------------------
def init_scorer_from_artifact(path: str) -> None:
    """Load a persisted linker into this process (serving worker)."""
    from repro.persist import load_linker

    with warnings.catch_warnings():
        # the parent process already surfaced any release-skew warning once;
        # N workers repeating it is noise
        warnings.simplefilter("ignore", UserWarning)
        _STATE["linker"] = load_linker(path)


def init_scorer_from_linker(linker) -> None:
    """Adopt an already-fitted linker shipped by the parent (serving worker)."""
    _STATE["linker"] = linker


def init_featurizer(pipeline, filler) -> None:
    """Adopt a fitted pipeline + filler for fit-time featurization shards."""
    _STATE["pipeline"] = pipeline
    _STATE["filler"] = filler


def init_shard_worker(path: str, batch_size: int = 256) -> None:
    """Load one shard artifact and stand up its serving state.

    The distributed serving tier (:mod:`repro.shard`) initializes each
    per-shard worker process with this function: it reuses
    :func:`init_scorer_from_artifact` to load the shard's packed-subset
    linker, then wraps it in a full :class:`~repro.serving.LinkageService`
    (caches, registry, candidate maintenance) and records the shard's
    manifest metadata — in particular the *served* account set, the refs
    whose Eqn 18 fill closure is fully resident on this shard and whose
    pair scores are therefore bit-exact.
    """
    from repro.persist import artifact_summary
    from repro.serving.service import LinkageService

    init_scorer_from_artifact(path)
    _STATE["shard_service"] = LinkageService(
        _STATE["linker"], batch_size=batch_size
    )
    meta = artifact_summary(path).get("shard") or {}
    _STATE["shard_meta"] = meta
    _STATE["shard_served"] = {
        (ref[0], ref[1]) for ref in meta.get("served", [])
    }


def worker_state() -> dict:
    """The live per-process state dict (shard task functions mutate it)."""
    return _STATE


# ----------------------------------------------------------------------
# shard tasks
# ----------------------------------------------------------------------
def score_chunked(linker, pairs: list, batch_size: int) -> np.ndarray:
    """Score ``pairs`` in fixed ``batch_size`` chunks.

    This is the one chunking loop behind both the inline serving path
    (:meth:`repro.serving.LinkageService._score`) and the sharded worker
    task: the workers=N bit-identity contract requires both paths to
    present identical chunk compositions to the kernel, so they must share
    this implementation rather than mirror it.
    """
    out = np.empty(len(pairs))
    for lo in range(0, len(pairs), batch_size):
        chunk = pairs[lo : lo + batch_size]
        out[lo : lo + len(chunk)] = linker.score_pairs(chunk)
    return out


def score_grouped(
    linker, groups: list[list], batch_size: int
) -> list[np.ndarray]:
    """Score several independent pair lists in one featurization sweep.

    The coalescing primitive behind the gateway's micro-batcher
    (:mod:`repro.gateway.batcher`), built on the same two stages
    ``HydraLinker.score_pairs`` itself composes
    (:meth:`~repro.core.hydra.HydraLinker.featurize_pairs` +
    :meth:`~repro.core.hydra.HydraLinker.score_features`), so the paths
    cannot drift apart: the groups' pairs are concatenated and featurized +
    missing-filled array-at-a-time in ``batch_size`` chunks — featurization
    is row-independent, so every feature row is bit-identical to
    featurizing its group alone.  The kernel decision then runs per group
    over that group's rows, chunked exactly as a standalone
    ``score_chunked(linker, group, batch_size)`` call would chunk them, so
    each group's scores are bit-identical to scoring the group by itself
    while the featurization fixed costs amortize across all groups.
    """
    all_pairs = [pair for group in groups for pair in group]
    if not all_pairs:
        return [np.zeros(0) for _ in groups]
    x = np.vstack([
        linker.featurize_pairs(all_pairs[lo : lo + batch_size])
        for lo in range(0, len(all_pairs), batch_size)
    ])
    out: list[np.ndarray] = []
    offset = 0
    for group in groups:
        scores = np.empty(len(group))
        for lo in range(0, len(group), batch_size):
            hi = min(lo + batch_size, len(group))
            scores[lo:hi] = linker.score_features(x[offset + lo : offset + hi])
        out.append(scores)
        offset += len(group)
    return out


def score_shard(
    index: int,
    pairs: list,
    batch_size: int,
    expected_epoch: int | None = None,
) -> ShardResult:
    """Score one shard of pairs through the process-local linker.

    Featurization runs in ``batch_size`` chunks exactly like the serial
    serving path (same :func:`score_chunked` loop), so each pair's score is
    computed by the same code on the same operands — the merged result is
    bit-identical to a serial pass.

    ``expected_epoch`` is the caller's registry epoch (see online ingestion
    in :mod:`repro.serving.service`): a worker whose linker snapshot
    predates a mutation must fail loudly rather than silently score against
    the stale account registry.
    """
    linker = _STATE["linker"]
    if expected_epoch is not None:
        epoch = getattr(linker, "ingest_epoch_", 0)
        if epoch != expected_epoch:
            raise RuntimeError(
                f"worker holds registry epoch {epoch}, caller expects "
                f"{expected_epoch}; the scoring pool must be rebuilt after "
                "an ingestion mutation"
            )
    start = time.perf_counter()
    out = score_chunked(linker, pairs, batch_size)
    return ShardResult(
        index=index,
        values=out,
        num_items=len(pairs),
        worker=worker_id(),
        seconds=time.perf_counter() - start,
    )


def featurize_shard(index: int, pairs: list) -> ShardResult:
    """Featurize + missing-fill one shard of pairs (fit-time worker).

    Returns the filled feature block for the shard's rows; both the raw
    featurization and the Eqn 18 fill are row-independent, so the merged
    matrix matches the serial featurize stage bit for bit.
    """
    pipeline = _STATE["pipeline"]
    filler = _STATE["filler"]
    start = time.perf_counter()
    x_raw = pipeline.matrix(pairs)
    filled = filler.fill_matrix(pairs, x_raw)
    return ShardResult(
        index=index,
        values=filled,
        num_items=len(pairs),
        worker=worker_id(),
        seconds=time.perf_counter() - start,
    )

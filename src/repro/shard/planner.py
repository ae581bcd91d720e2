"""Shard planner: partition one fitted artifact into K serving shards.

The planner turns a single-process artifact (:mod:`repro.persist`) into a
*shard plan* directory::

    plan/
      shard_plan.json     # assignment, candidate ownership, shard inventory
      head/               # the scoring head (decision function, no world)
      shard_0000/         # a full artifact: packed-subset store + manifest
      shard_0001/
      ...

Each shard artifact is a complete, loadable linker over a
``PackedAccountStore.subset()`` of the account universe, so the per-shard
serving workers initialize from a path exactly like single-process parallel
workers do (:func:`repro.parallel.worker.init_shard_worker`).

Three account sets per shard, computed here and recorded in the shard's
manifest:

**owned**
    ``assignment.shard_of(ref) == shard``.  Disjoint across shards; writes
    route by ownership.  A candidate pair is owned by the shard that owns
    its left ref.

**served**
    Owned accounts plus the partners of owned candidate pairs.  Any pair of
    served accounts can be featurized on this shard with a bit-exact Eqn 18
    fill (see below); shard workers refuse pairs outside the served set
    rather than silently fill them approximately.

**resident**
    Served accounts plus the one-hop top-``k`` interaction-friend closure
    of every served account.  Residents are featurizable (they are in the
    packed subset) but not addressable.  The closure is what makes served
    fills exact: ``graph.top_friends`` ranks by ``(-weight, id)`` — a total
    order — so when a served account's global top-k friends are all kept,
    the subset graph's top-k equals the full graph's top-k, and friend-pair
    vectors are raw featurizations (no recursive fill), so one hop closes
    the recursion.

Known approximation (documented, deliberate): blocking statistics are
shard-local.  Candidate pairs *created by post-plan ingestion* may differ
from what a single-process deployment would create (rare-word rarity is
judged per shard, partners on other shards are invisible to blocking), so
parity over mutations is defined on the plan-time candidate set plus
owner-created pairs — the chaos suite pins exactly that contract.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.candidates import CandidateSet
from repro.features.missing import CoreStructureFiller, ZeroFiller
from repro.persist import load_linker, save_linker, save_scoring_head
from repro.persist.artifact import _pair_from_json, _pair_to_json
from repro.shard.assign import (
    ExplicitAssignment,
    HashAssignment,
    assignment_from_json,
)
from repro.socialnet.platform import subset_world

__all__ = [
    "PLAN_FORMAT",
    "PLAN_VERSION",
    "PlanEntry",
    "ShardInfo",
    "ShardPlanError",
    "ShardTopology",
    "load_shard_plan",
    "plan_shards",
    "rebalance_assignment",
    "rebalance_plan",
]

PLAN_FORMAT = "hydra-shard-plan"
PLAN_VERSION = 1

_PLAN_FILE = "shard_plan.json"
_HEAD_DIR = "head"

AccountRef = tuple[str, str]


class ShardPlanError(RuntimeError):
    """Raised for unreadable, incomplete, or incompatible shard plans."""


@dataclass(frozen=True)
class PlanEntry:
    """One plan-time candidate pair with its rule evidence and owner."""

    pair: tuple[AccountRef, AccountRef]
    evidence: frozenset[str]
    owner: int


@dataclass(frozen=True)
class ShardInfo:
    """One shard's inventory facts, as recorded in ``shard_plan.json``."""

    index: int
    path: str
    owned_accounts: int
    served_accounts: int
    resident_accounts: int
    owned_pairs: int


@dataclass
class ShardTopology:
    """A loaded shard plan: everything the gateway router needs."""

    path: Path
    num_shards: int
    assignment: object
    source_artifact: str | None
    base_epoch: int
    threshold: float
    platform_pairs: list[tuple[str, str]]
    #: per platform-pair key: the global candidate list in source order
    entries: dict[tuple[str, str], list[PlanEntry]] = field(
        default_factory=dict
    )
    shards: list[ShardInfo] = field(default_factory=list)

    @property
    def head_path(self) -> Path:
        return self.path / _HEAD_DIR

    def shard_path(self, index: int) -> Path:
        return self.path / self.shards[index].path


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def _slice_filler(filler, sub_world, sub_pipeline):
    """A filler equivalent to ``filler`` but bound to the shard subset."""
    if isinstance(filler, ZeroFiller):
        return ZeroFiller()
    if isinstance(filler, CoreStructureFiller):
        if filler._matrix is None:
            raise ShardPlanError(
                "cannot shard a linker whose filler uses a custom "
                "pair_vector override"
            )
        return CoreStructureFiller(
            sub_world,
            sub_pipeline,
            top_k=filler.top_k,
            cache_limit=filler.cache_limit,
        )
    raise ShardPlanError(
        f"cannot shard a linker with filler {type(filler).__name__}"
    )


def _slice_linker(linker, resident_order, shard_candidates, owned_pairs):
    """A shallow linker clone serving only the shard's resident subset.

    Shares the fitted model and read-only feature models with the source;
    replaces the world, pipeline cache/store, filler, and candidate index
    with shard-local slices.  Consistency blocks are fit-time state indexed
    against the *global* candidate rows, meaningless on a slice — shard
    artifacts drop them.
    """
    full_pipe = linker.pipeline
    keep: dict[str, list[str]] = {
        name: [] for name in linker._world.platforms
    }
    for platform, account_id in resident_order:
        keep[platform].append(account_id)
    sub_world = subset_world(linker._world, keep)

    pipe = copy.copy(full_pipe)
    pipe._world = sub_world
    pipe._cache = {ref: full_pipe._cache[ref] for ref in resident_order}
    pipe._packed = full_pipe.packed_store.subset(resident_order)
    pipe._batch = pipe._make_featurizer(pipe._packed)

    shard = copy.copy(linker)
    shard.pipeline = pipe
    shard._world = sub_world
    shard._filler = _slice_filler(linker._filler, sub_world, pipe)
    shard.candidates_ = shard_candidates
    shard.global_pairs_ = owned_pairs
    shard.blocks_ = []
    shard.artifact_path_ = None
    return shard


def plan_shards(
    artifact,
    out_dir,
    num_shards: int,
    *,
    seed: int = 0,
    assignment=None,
    linker=None,
) -> ShardTopology:
    """Partition ``artifact`` into ``num_shards`` shard artifacts.

    ``assignment`` defaults to :class:`HashAssignment(num_shards, seed)`;
    pass an :class:`ExplicitAssignment` (e.g. from
    :func:`rebalance_assignment`) to pin placements.  ``linker`` skips the
    artifact reload when the caller already holds the loaded source.
    Returns the loaded :class:`ShardTopology` of the written plan.
    """
    if num_shards < 1:
        raise ShardPlanError(f"num_shards must be >= 1, got {num_shards}")
    if linker is None:
        linker = load_linker(artifact)
    if assignment is None:
        assignment = HashAssignment(num_shards, seed=seed)
    if assignment.num_shards != num_shards:
        raise ShardPlanError(
            f"assignment partitions into {assignment.num_shards} shards, "
            f"planner asked for {num_shards}"
        )

    full_pipe = linker.pipeline
    store = full_pipe.packed_store
    world = linker._world

    owned: list[set[AccountRef]] = [set() for _ in range(num_shards)]
    for ref in store.refs:
        owned[assignment.shard_of(ref)].add(ref)

    # candidate ownership: the shard owning the left ref owns the pair;
    # per-shard slices keep the global (per-key, source-order) row order
    entries: dict[tuple[str, str], list[PlanEntry]] = {}
    shard_cands: list[dict] = [{} for _ in range(num_shards)]
    served: list[set[AccountRef]] = [set(s) for s in owned]
    for key in sorted(linker.candidates_):
        cand = linker.candidates_[key]
        entries[key] = []
        prematched = set(cand.prematched)
        for row, (pair, evidence) in enumerate(zip(cand.pairs, cand.evidence)):
            owner = assignment.shard_of(pair[0])
            entries[key].append(PlanEntry(pair, evidence, owner))
            slice_ = shard_cands[owner].setdefault(
                key,
                CandidateSet(platform_a=key[0], platform_b=key[1]),
            )
            if row in prematched:
                slice_.prematched.append(len(slice_.pairs))
            slice_.pairs.append(pair)
            slice_.evidence.append(evidence)
            served[owner].add(pair[0])
            served[owner].add(pair[1])

    # every shard carries every platform-pair key (possibly empty) so
    # shard-local top_k / ingestion always finds its registry slot
    for shard_index in range(num_shards):
        for key in sorted(linker.candidates_):
            shard_cands[shard_index].setdefault(
                key, CandidateSet(platform_a=key[0], platform_b=key[1])
            )

    # resident closure: top-k interaction friends of every served account,
    # so served pairs' Eqn 18 fills are computed from exactly the friends
    # the full deployment would use
    residents: list[set[AccountRef]] = [set(s) for s in served]
    filler = linker._filler
    friend_k = getattr(filler, "top_k", 0)
    if friend_k:
        for shard_index in range(num_shards):
            for platform, account_id in served[shard_index]:
                graph = world.platforms[platform].graph
                for friend_id in graph.top_friends(account_id, friend_k):
                    friend = (platform, friend_id)
                    if friend in store.row_of and friend in full_pipe._cache:
                        residents[shard_index].add(friend)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_scoring_head(linker, out_dir / _HEAD_DIR)

    shard_infos = []
    pack_order = list(full_pipe._cache)
    for shard_index in range(num_shards):
        resident_order = [
            ref for ref in pack_order if ref in residents[shard_index]
        ]
        owned_pairs = [
            pair
            for pair in linker.global_pairs_
            if assignment.shard_of(pair[0]) == shard_index
        ]
        shard_linker = _slice_linker(
            linker,
            resident_order,
            shard_cands[shard_index],
            owned_pairs,
        )
        shard_name = f"shard_{shard_index:04d}"
        save_linker(
            shard_linker,
            out_dir / shard_name,
            extra_manifest={
                "shard": {
                    "index": shard_index,
                    "num_shards": num_shards,
                    "served": sorted(
                        [list(ref) for ref in served[shard_index]]
                    ),
                    "owned_accounts": len(owned[shard_index]),
                    "resident_accounts": len(resident_order),
                    "owned_pairs": len(owned_pairs),
                }
            },
        )
        shard_infos.append(
            ShardInfo(
                index=shard_index,
                path=shard_name,
                owned_accounts=len(owned[shard_index]),
                served_accounts=len(served[shard_index]),
                resident_accounts=len(resident_order),
                owned_pairs=len(owned_pairs),
            )
        )

    plan = {
        "format": PLAN_FORMAT,
        "version": PLAN_VERSION,
        "num_shards": num_shards,
        "assignment": assignment.to_json(),
        "source_artifact": str(artifact) if artifact is not None else None,
        "base_epoch": getattr(linker, "ingest_epoch_", 0),
        "threshold": linker.threshold,
        "platform_pairs": [list(key) for key in sorted(entries)],
        "candidates": [
            {
                "platform_a": key[0],
                "platform_b": key[1],
                "entries": [
                    [
                        _pair_to_json(entry.pair),
                        sorted(entry.evidence),
                        entry.owner,
                    ]
                    for entry in entries[key]
                ],
            }
            for key in sorted(entries)
        ],
        "shards": [
            {
                "index": info.index,
                "path": info.path,
                "owned_accounts": info.owned_accounts,
                "served_accounts": info.served_accounts,
                "resident_accounts": info.resident_accounts,
                "owned_pairs": info.owned_pairs,
            }
            for info in shard_infos
        ],
    }
    (out_dir / _PLAN_FILE).write_text(
        json.dumps(plan, indent=2, sort_keys=True)
    )
    return load_shard_plan(out_dir)


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def load_shard_plan(plan_dir) -> ShardTopology:
    """Read a plan directory written by :func:`plan_shards`."""
    plan_dir = Path(plan_dir)
    plan_path = plan_dir / _PLAN_FILE
    if not plan_path.is_file():
        raise ShardPlanError(f"no shard plan at {plan_path}")
    try:
        plan = json.loads(plan_path.read_text())
    except json.JSONDecodeError as exc:
        raise ShardPlanError(f"corrupt shard plan at {plan_path}: {exc}")
    if plan.get("format") != PLAN_FORMAT:
        raise ShardPlanError(
            f"unknown plan format {plan.get('format')!r} "
            f"(expected {PLAN_FORMAT!r})"
        )
    if plan.get("version") != PLAN_VERSION:
        raise ShardPlanError(
            f"unsupported plan version {plan.get('version')!r} "
            f"(this build reads version {PLAN_VERSION})"
        )
    entries = {}
    for block in plan["candidates"]:
        key = (block["platform_a"], block["platform_b"])
        entries[key] = [
            PlanEntry(
                pair=_pair_from_json(raw_pair),
                evidence=frozenset(rules),
                owner=int(owner),
            )
            for raw_pair, rules, owner in block["entries"]
        ]
    shards = [
        ShardInfo(
            index=int(raw["index"]),
            path=raw["path"],
            owned_accounts=int(raw["owned_accounts"]),
            served_accounts=int(raw["served_accounts"]),
            resident_accounts=int(raw["resident_accounts"]),
            owned_pairs=int(raw["owned_pairs"]),
        )
        for raw in sorted(plan["shards"], key=lambda raw: raw["index"])
    ]
    return ShardTopology(
        path=plan_dir,
        num_shards=int(plan["num_shards"]),
        assignment=assignment_from_json(plan["assignment"]),
        source_artifact=plan.get("source_artifact"),
        base_epoch=int(plan.get("base_epoch", 0)),
        threshold=float(plan["threshold"]),
        platform_pairs=[tuple(key) for key in plan["platform_pairs"]],
        entries=entries,
        shards=shards,
    )


# ----------------------------------------------------------------------
# rebalancing
# ----------------------------------------------------------------------
def rebalance_assignment(
    topology: ShardTopology, num_shards: int | None = None
) -> ExplicitAssignment:
    """A pinned assignment that balances owned-pair load across shards.

    Greedy longest-processing-time placement: accounts are weighted by the
    candidate pairs they anchor (1 for storage + 2 per owned pair, since a
    pair costs its owner featurization of both sides), sorted heaviest
    first, and placed on the currently lightest shard.  Deterministic: ties
    break on the ref, then the lowest shard index.
    """
    num_shards = num_shards or topology.num_shards
    weights: dict[AccountRef, int] = {}
    for entry_list in topology.entries.values():
        for entry in entry_list:
            weights[entry.pair[0]] = weights.get(entry.pair[0], 0) + 2
            weights.setdefault(entry.pair[1], weights.get(entry.pair[1], 0))
    ranked = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
    loads = [0] * num_shards
    mapping: dict[AccountRef, int] = {}
    for ref, weight in ranked:
        target = min(range(num_shards), key=lambda i: (loads[i], i))
        mapping[ref] = target
        loads[target] += 1 + weight
    fallback_seed = getattr(topology.assignment, "seed", None)
    if fallback_seed is None:
        fallback_seed = getattr(
            getattr(topology.assignment, "fallback", None), "seed", 0
        )
    return ExplicitAssignment(
        mapping,
        num_shards,
        fallback=HashAssignment(num_shards, seed=fallback_seed),
    )


def rebalance_plan(
    plan_dir, out_dir, *, num_shards: int | None = None
) -> ShardTopology:
    """Re-plan an existing shard plan with a load-balanced assignment.

    Loads the plan at ``plan_dir``, derives a pinned
    :class:`ExplicitAssignment` from its candidate ownership skew, and
    writes a fresh plan (from the original source artifact) to ``out_dir``.
    """
    topology = load_shard_plan(plan_dir)
    if not topology.source_artifact:
        raise ShardPlanError("plan records no source artifact to re-plan from")
    source = Path(topology.source_artifact)
    if not (source / "manifest.json").is_file():
        raise ShardPlanError(
            f"source artifact no longer available at {source}"
        )
    num_shards = num_shards or topology.num_shards
    assignment = rebalance_assignment(topology, num_shards)
    return plan_shards(
        source, out_dir, num_shards, assignment=assignment
    )

"""Distributed multi-shard serving: planner, workers, scatter-gather router.

The tier splits a fitted :class:`~repro.core.HydraLinker` artifact into K
disjoint shard artifacts (:func:`plan_shards`), serves each from its own
worker process (:mod:`repro.shard.tasks`, initialized by
:func:`repro.shard.tasks.init_shard_worker`), and routes queries
through :class:`ShardedLinkageService` — a drop-in
:class:`~repro.serving.LinkageService` for the gateway whose merged
results are bit-identical to a single-process deployment.
"""

from repro.shard.assign import (
    ExplicitAssignment,
    HashAssignment,
    assignment_from_json,
)
from repro.shard.planner import (
    PlanEntry,
    ShardInfo,
    ShardPlanError,
    ShardTopology,
    load_shard_plan,
    plan_shards,
    rebalance_assignment,
    rebalance_plan,
)
from repro.shard.router import (
    RouterStats,
    ShardedLinkageService,
    ShardUnavailableError,
)
from repro.shard.tasks import PairNotServed, StaleShardEpoch

__all__ = [
    "ExplicitAssignment",
    "HashAssignment",
    "PairNotServed",
    "PlanEntry",
    "RouterStats",
    "ShardInfo",
    "ShardPlanError",
    "ShardTopology",
    "ShardUnavailableError",
    "ShardedLinkageService",
    "StaleShardEpoch",
    "assignment_from_json",
    "load_shard_plan",
    "plan_shards",
    "rebalance_assignment",
    "rebalance_plan",
]

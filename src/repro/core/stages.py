"""Staged fit pipeline: Algorithm 1 as composable, profiled stage objects.

:class:`~repro.core.hydra.HydraLinker` used to run candidate selection,
labeling, featurization, consistency-graph construction and optimization as
one inline monolith.  This module decomposes that flow into five
:class:`LinkageStage` objects that communicate through a typed
:class:`LinkageContext`:

========================  ====================================================
stage                     responsibility
========================  ====================================================
:class:`CandidateStage`   rule-based blocking per platform pair (Alg 1 step 1)
:class:`LabelStage`       merge ground-truth + pre-matched labels, fix the
                          global row layout (labeled first, Eqn 13)
:class:`FeaturizeStage`   fit the feature pipeline, emit the NaN-resolved
                          matrix (HYDRA-M / HYDRA-Z) and behavior summaries
:class:`ConsistencyStage` per-platform-pair structure graphs (Alg 1 step 2)
:class:`OptimizeStage`    multi-objective dual optimization (Alg 1 steps 3-6)
========================  ====================================================

Each stage reads the context fields produced by its predecessors and writes
its own; :func:`run_stages` executes a stage list in order and records
per-stage wall time in ``context.timings``, so stages can be swapped,
profiled, and rerun independently (e.g. re-optimize with new hyperparameters
without re-featurizing).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.candidates import CandidateGenerator, CandidateSet
from repro.core.consistency import ConsistencyBlock, StructureConsistencyBuilder
from repro.core.moo import MooConfig, MultiObjectiveModel
from repro.features.missing import CoreStructureFiller, MissingFiller, ZeroFiller
from repro.features.pipeline import AccountRef, FeaturePipeline
from repro.socialnet.platform import SocialWorld

__all__ = [
    "LinkageContext",
    "LinkageStage",
    "CandidateStage",
    "LabelStage",
    "FeaturizeStage",
    "ConsistencyStage",
    "OptimizeStage",
    "run_stages",
]

Pair = tuple[AccountRef, AccountRef]


@dataclass
class LinkageContext:
    """Typed state flowing through the staged fit pipeline.

    The first block is the immutable input; every later field is written by
    exactly one stage (named in the comment) and read by its successors.
    """

    world: SocialWorld
    labeled_positive: list[Pair]
    labeled_negative: list[Pair]
    platform_pairs: list[tuple[str, str]]
    injected_candidates: dict[tuple[str, str], CandidateSet] | None = None

    # CandidateStage
    candidates: dict[tuple[str, str], CandidateSet] = field(default_factory=dict)
    # LabelStage
    labels: dict[Pair, float] = field(default_factory=dict)
    global_pairs: list[Pair] = field(default_factory=list)
    num_labeled: int = 0
    y: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # FeaturizeStage
    x_all: np.ndarray | None = None
    filler: MissingFiller | None = None
    behavior: dict[AccountRef, np.ndarray] = field(default_factory=dict)
    # ConsistencyStage
    blocks: list[ConsistencyBlock] = field(default_factory=list)
    # OptimizeStage
    model: MultiObjectiveModel | None = None
    # run_stages
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def labeled_pairs(self) -> list[Pair]:
        """The labeled prefix of the global row layout."""
        return self.global_pairs[: self.num_labeled]


class LinkageStage:
    """One step of the fit pipeline; mutates the context in place."""

    name: str = "stage"

    def run(self, context: LinkageContext) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def __repr__(self) -> str:  # stages are config-bearing; show the name
        return f"<{type(self).__name__} {self.name!r}>"


def run_stages(stages: list[LinkageStage], context: LinkageContext) -> LinkageContext:
    """Execute ``stages`` in order, recording wall time per stage name."""
    for stage in stages:
        start = time.perf_counter()
        stage.run(context)
        context.timings[stage.name] = time.perf_counter() - start
    return context


class CandidateStage(LinkageStage):
    """Algorithm 1 step 1: rule-based candidate selection per platform pair.

    Pre-generated candidate sets (``context.injected_candidates``) short-cut
    generation so several methods can be compared on identical blocking.
    """

    name = "candidates"

    def __init__(self, generator: CandidateGenerator):
        self.generator = generator

    def run(self, context: LinkageContext) -> None:
        if context.injected_candidates is not None:
            context.candidates = dict(context.injected_candidates)
        else:
            context.candidates = {
                (pa, pb): self.generator.generate(context.world, pa, pb)
                for pa, pb in context.platform_pairs
            }


class LabelStage(LinkageStage):
    """Merge labels and fix the global row layout: labeled first (Eqn 13)."""

    name = "labels"

    def __init__(self, *, use_prematched: bool = True):
        self.use_prematched = use_prematched

    def run(self, context: LinkageContext) -> None:
        labels: dict[Pair, float] = {}
        for pair in context.labeled_positive:
            labels[pair] = 1.0
        for pair in context.labeled_negative:
            if pair in labels:
                raise ValueError(f"pair labeled both positive and negative: {pair}")
            labels[pair] = -1.0
        if self.use_prematched:
            for cand in context.candidates.values():
                for idx in cand.prematched:
                    labels.setdefault(cand.pairs[idx], 1.0)

        labeled_pairs = sorted(labels, key=lambda p: (p[0], p[1]))
        seen = set(labeled_pairs)
        unlabeled_pairs: list[Pair] = []
        for key in sorted(context.candidates):
            for pair in context.candidates[key].pairs:
                if pair not in seen:
                    seen.add(pair)
                    unlabeled_pairs.append(pair)

        context.labels = labels
        context.global_pairs = labeled_pairs + unlabeled_pairs
        context.num_labeled = len(labeled_pairs)
        context.y = np.array([labels[p] for p in labeled_pairs])
        if context.num_labeled == 0:
            raise ValueError("no labeled pairs available (labels and pre-matches empty)")
        if np.unique(context.y).size < 2:
            raise ValueError("labeled pairs must include both classes")


class FeaturizeStage(LinkageStage):
    """Fit the feature pipeline, resolve missing values, cache behavior.

    ``missing_strategy`` selects HYDRA-M (``"core"``, Eqn 18 fill from the
    core social structure) or HYDRA-Z (``"zero"``).
    """

    name = "featurize"

    def __init__(
        self,
        pipeline: FeaturePipeline,
        *,
        missing_strategy: str = "core",
    ):
        if missing_strategy not in ("core", "zero"):
            raise ValueError(
                f"missing_strategy must be 'core' or 'zero', got {missing_strategy!r}"
            )
        self.pipeline = pipeline
        self.missing_strategy = missing_strategy

    def run(self, context: LinkageContext) -> None:
        labeled = context.labeled_pairs
        self.pipeline.fit(
            context.world,
            [p for p in labeled if context.labels[p] > 0],
            [p for p in labeled if context.labels[p] < 0],
        )
        if self.missing_strategy == "core":
            context.filler = CoreStructureFiller(context.world, self.pipeline)
        else:
            context.filler = ZeroFiller()
        x_raw = self.pipeline.matrix(context.global_pairs)
        context.x_all = context.filler.fill_matrix(context.global_pairs, x_raw)
        context.behavior = {
            ref: self.pipeline.behavior_summary(ref)
            for pair in context.global_pairs
            for ref in pair
        }


class ConsistencyStage(LinkageStage):
    """Algorithm 1 step 2: structure consistency graphs per platform pair."""

    name = "consistency"

    def __init__(self, builder: StructureConsistencyBuilder):
        self.builder = builder

    def run(self, context: LinkageContext) -> None:
        row_of = {pair: i for i, pair in enumerate(context.global_pairs)}
        context.blocks = []
        for pa, pb in context.platform_pairs:
            block_pairs = [
                pair for pair in context.global_pairs
                if pair[0][0] == pa and pair[1][0] == pb
            ]
            if len(block_pairs) < 2:
                continue
            indices = np.array([row_of[p] for p in block_pairs], dtype=np.int64)
            context.blocks.append(
                self.builder.build(
                    context.world, block_pairs, context.behavior, indices=indices
                )
            )


class OptimizeStage(LinkageStage):
    """Algorithm 1 steps 3-6: multi-objective dual optimization."""

    name = "optimize"

    def __init__(self, config: MooConfig):
        self.config = config

    def run(self, context: LinkageContext) -> None:
        if context.x_all is None:
            raise RuntimeError("FeaturizeStage must run before OptimizeStage")
        context.model = MultiObjectiveModel(self.config)
        context.model.fit(
            context.x_all[: context.num_labeled],
            context.y,
            context.x_all[context.num_labeled:],
            context.blocks,
        )

"""Prepared experiment state for hyper-parameter sweeps (Figs 8 and 10).

The paper's parameter studies re-train the *model* many times on the *same*
features (gamma_L x gamma_M grid under several p; p = 1..10).  Re-running
candidate generation, featurization and graph construction for every cell
would dominate the sweep, so :class:`PreparedExperiment` does the expensive
part once — split, candidates, pipeline fit, feature matrix, missing-data
fill, consistency blocks — and exposes :meth:`evaluate_config`, which solves
one :class:`~repro.core.moo.MooConfig` and scores the held-out linkage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.consistency import ConsistencyBlock, StructureConsistencyBuilder
from repro.core.moo import MooConfig, MultiObjectiveModel
from repro.core.resolve import greedy_one_to_one
from repro.eval.harness import ExperimentHarness
from repro.eval.metrics import LinkageMetrics, precision_recall_f1
from repro.features.missing import CoreStructureFiller, ZeroFiller
from repro.features.pipeline import FeaturePipeline
from repro.socialnet.platform import SocialWorld

__all__ = ["PreparedExperiment"]

AccountRef = tuple[str, str]
Pair = tuple[AccountRef, AccountRef]


@dataclass
class _SweepResult:
    """Outcome of one configuration cell."""

    config: MooConfig
    metrics: LinkageMetrics
    objective_values: list[float]


class PreparedExperiment:
    """One world, featurized once; many model configurations evaluated fast.

    Parameters mirror the harness; ``missing_strategy`` picks the HYDRA-M or
    HYDRA-Z fill applied to the (single) feature matrix.
    """

    def __init__(
        self,
        world: SocialWorld,
        *,
        platform_pairs: list[tuple[str, str]] | None = None,
        label_fraction: float = 1.0 / 6.0,
        missing_strategy: str = "core",
        num_topics: int = 10,
        max_lda_docs: int = 2500,
        seed: int = 0,
    ):
        self.world = world
        self.harness = ExperimentHarness(
            world,
            platform_pairs=platform_pairs,
            label_fraction=label_fraction,
            seed=seed,
        )
        split = self.harness.split

        # labels: ground-truth labeled pairs (prematched pairs stay unlabeled
        # here so sweep cells measure the pure configuration effect)
        labels: dict[Pair, float] = {p: 1.0 for p in split.labeled_positive}
        labels.update({p: -1.0 for p in split.labeled_negative})
        labeled_pairs = sorted(labels, key=lambda p: (p[0], p[1]))
        unlabeled: list[Pair] = []
        seen = set(labeled_pairs)
        for key in sorted(self.harness.candidates):
            for pair in self.harness.candidates[key].pairs:
                if pair not in seen:
                    seen.add(pair)
                    unlabeled.append(pair)
        self.global_pairs: list[Pair] = labeled_pairs + unlabeled
        self.num_labeled = len(labeled_pairs)
        self.y = np.array([labels[p] for p in labeled_pairs])

        # featurize once
        self.pipeline = FeaturePipeline(
            num_topics=num_topics, max_lda_docs=max_lda_docs, seed=seed
        )
        self.pipeline.fit(
            world,
            [p for p in labeled_pairs if labels[p] > 0],
            [p for p in labeled_pairs if labels[p] < 0],
        )
        raw = self.pipeline.matrix(self.global_pairs)
        if missing_strategy == "core":
            filler = CoreStructureFiller(world, self.pipeline)
        elif missing_strategy == "zero":
            filler = ZeroFiller()
        else:
            raise ValueError(f"unknown missing_strategy: {missing_strategy!r}")
        self.x_all = filler.fill_matrix(self.global_pairs, raw)

        # consistency blocks once
        row_of = {pair: i for i, pair in enumerate(self.global_pairs)}
        behavior = {
            ref: self.pipeline.behavior_summary(ref)
            for pair in self.global_pairs
            for ref in pair
        }
        builder = StructureConsistencyBuilder()
        self.blocks: list[ConsistencyBlock] = []
        self._pair_rows: dict[tuple[str, str], list[int]] = {}
        for pa, pb in self.harness.platform_pairs:
            block_pairs = [
                p for p in self.global_pairs if p[0][0] == pa and p[1][0] == pb
            ]
            self._pair_rows[(pa, pb)] = [row_of[p] for p in block_pairs]
            if len(block_pairs) >= 2:
                indices = np.array([row_of[p] for p in block_pairs], dtype=np.int64)
                self.blocks.append(
                    builder.build(world, block_pairs, behavior, indices=indices)
                )

    # ------------------------------------------------------------------
    def evaluate_config(
        self, config: MooConfig, *, threshold: float = 0.0
    ) -> _SweepResult:
        """Fit one configuration and score held-out linkage quality."""
        model = MultiObjectiveModel(config)
        model.fit(
            self.x_all[: self.num_labeled],
            self.y,
            self.x_all[self.num_labeled:],
            self.blocks,
        )
        scores = model.decision_function(self.x_all)

        exclude = self.harness.split.all_true_labeled
        tp_sum = returned_sum = actual_sum = 0
        for key, rows in self._pair_rows.items():
            pairs = [self.global_pairs[r] for r in rows]
            linked = [
                pairs[i] for i in greedy_one_to_one(pairs, scores[rows], threshold)
            ]
            metrics = precision_recall_f1(
                linked, self.harness.split.heldout_true[key], exclude=exclude
            )
            tp_sum += metrics.true_positives
            returned_sum += metrics.returned
            actual_sum += metrics.actual
        precision = tp_sum / returned_sum if returned_sum else 0.0
        recall = tp_sum / actual_sum if actual_sum else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        overall = LinkageMetrics(
            precision=precision,
            recall=recall,
            f1=f1,
            true_positives=tp_sum,
            returned=returned_sum,
            actual=actual_sum,
        )
        return _SweepResult(
            config=config, metrics=overall, objective_values=model.objective_values_
        )

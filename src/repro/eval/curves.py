"""Precision-recall trade-off curves for linkage scores.

The paper reports precision and recall at the model's operating point;
downstream users usually want the whole trade-off to pick their own
threshold.  :func:`precision_recall_curve` sweeps the decision threshold over
a :class:`~repro.core.hydra.LinkageResult`'s scores (with the one-to-one
constraint re-applied at each threshold by
:func:`~repro.core.resolve.greedy_one_to_one`) and returns the frontier;
:func:`best_threshold` picks the F-beta-optimal operating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.resolve import greedy_one_to_one

__all__ = ["CurvePoint", "precision_recall_curve", "best_threshold", "average_precision"]


@dataclass(frozen=True)
class CurvePoint:
    """One operating point of the linkage trade-off."""

    threshold: float
    precision: float
    recall: float

    def f_beta(self, beta: float = 1.0) -> float:
        """F-beta score at this point (beta > 1 favors recall)."""
        p, r = self.precision, self.recall
        if p == 0.0 and r == 0.0:
            return 0.0
        b2 = beta * beta
        return (1 + b2) * p * r / (b2 * p + r)


def precision_recall_curve(
    pairs: list,
    scores: np.ndarray,
    true_pairs: set,
    *,
    num_thresholds: int = 50,
) -> list[CurvePoint]:
    """Sweep thresholds over the score range and collect (P, R) points.

    ``pairs`` and ``scores`` come from a
    :class:`~repro.core.hydra.LinkageResult`; ``true_pairs`` is the gold set.
    Thresholds run from just below the minimum score (link everything the
    matching allows) to the maximum (link nothing).
    """
    scores = np.asarray(scores, dtype=float)
    if len(pairs) != scores.shape[0]:
        raise ValueError("pairs and scores must have equal length")
    if scores.size == 0:
        return []
    lo = float(scores.min()) - 1e-9
    hi = float(scores.max())
    thresholds = np.linspace(lo, hi, num_thresholds)
    points = []
    for threshold in thresholds:
        linked = [pairs[i] for i in greedy_one_to_one(pairs, scores, threshold)]
        tp = sum(1 for p in linked if p in true_pairs)
        precision = tp / len(linked) if linked else 0.0
        recall = tp / len(true_pairs) if true_pairs else 0.0
        points.append(
            CurvePoint(threshold=float(threshold), precision=precision, recall=recall)
        )
    return points


def best_threshold(points: list[CurvePoint], *, beta: float = 1.0) -> CurvePoint:
    """The F-beta-optimal point of a curve (ties -> highest threshold)."""
    if not points:
        raise ValueError("curve is empty")
    return max(points, key=lambda pt: (pt.f_beta(beta), pt.threshold))


def average_precision(points: list[CurvePoint]) -> float:
    """Area under the precision-recall frontier (step interpolation).

    Points are sorted by recall; precision is taken as the running maximum
    from the high-recall side, the standard AP convention.
    """
    if not points:
        return 0.0
    ordered = sorted(points, key=lambda pt: pt.recall)
    recalls = np.array([0.0] + [pt.recall for pt in ordered])
    precisions = np.array([pt.precision for pt in ordered] + [0.0])
    # running max from the right so precision is monotone non-increasing
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    return float(np.sum(np.diff(recalls) * precisions[:-1]))

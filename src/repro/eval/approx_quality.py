"""The tolerance harness for approximate scoring: recall@k and NDCG@k.

Approximate ``top_k`` (:mod:`repro.approx`) deliberately trades ranking
exactness for speed, so its quality has to be *measured*, not assumed.
This module compares an approximate ranking against exhaustive exact
scoring of the same candidate set:

* **recall@k** — of the exact top-k pairs, what fraction the approximate
  top-k returned.  This is the headline gate (``tests/test_approx.py``
  enforces recall@10 at the default budget);
* **NDCG@k** — position-aware quality with the *exact* scores as graded
  relevance (shifted to be non-negative), so a near-miss that returns
  the 11th-strongest pair instead of the 10th is penalized less than one
  that returns noise.

:func:`evaluate_top_k` sweeps budgets for one platform pair of a live
service; :func:`sweep_service` covers every platform pair.

Everything here goes through the public serving interface —
``service.top_k(..., exact=False, budget=...)`` against
``service.score_pairs`` ground truth — so the harness exercises exactly
the path users get, including the exact-rescore contract (asserted
separately in the test suite: returned approximate *scores* are
bit-identical to exact scoring of the same pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.utils.ranking import top_k_indices

__all__ = [
    "QualityPoint",
    "evaluate_top_k",
    "ndcg_at_k",
    "recall_at_k",
    "sweep_service",
]


def recall_at_k(approx_pairs: Iterable, exact_pairs: Iterable) -> float:
    """|approx ∩ exact| / |exact| over two top-k pair lists.

    1.0 when the exact list is empty: a cutoff cannot lose links that do
    not exist.
    """
    exact = set(exact_pairs)
    if not exact:
        return 1.0
    return len(exact & set(approx_pairs)) / len(exact)


def ndcg_at_k(
    approx_pairs: Sequence,
    exact_pairs: Sequence,
    exact_scores: dict,
) -> float:
    """NDCG of the approximate list against the exact ranking.

    ``exact_scores`` maps every candidate pair to its exhaustive exact
    score; relevances are the scores shifted so the weakest considered
    candidate sits at zero (decision values may be negative).  The ideal
    DCG comes from the exact list, so 1.0 means the rankings agree on
    both membership and order at this ``k``.
    """
    if not exact_pairs:
        return 1.0
    floor = min(exact_scores.values())

    def dcg(pairs: Sequence) -> float:
        return sum(
            (exact_scores.get(pair, floor) - floor) / np.log2(i + 2.0)
            for i, pair in enumerate(pairs)
        )

    ideal = dcg(exact_pairs)
    if ideal <= 0.0:
        return 1.0
    return dcg(approx_pairs) / ideal


@dataclass(frozen=True)
class QualityPoint:
    """Quality of one (platform pair, budget, k) configuration."""

    platform_a: str
    platform_b: str
    budget: int
    k: int
    recall: float
    ndcg: float
    candidates: int  # exhaustive candidate count (what exact scoring pays)

    @property
    def pruned_fraction(self) -> float:
        """Fraction of the candidate set the approximate path skipped."""
        if self.candidates == 0:
            return 0.0
        return 1.0 - min(self.budget, self.candidates) / self.candidates


def evaluate_top_k(
    service,
    platform_a: str,
    platform_b: str,
    *,
    k: int = 10,
    budgets: Sequence[int] = (32, 64, 128),
) -> list[QualityPoint]:
    """Recall@k / NDCG@k of approximate ``top_k`` for one platform pair.

    Exhaustive ground truth is computed once (exact scores for every
    indexed candidate), then each budget's approximate ranking is
    compared against it.
    """
    if (platform_a, platform_b) not in service.platform_pairs():
        platform_a, platform_b = platform_b, platform_a
    pairs = service.candidate_pairs((platform_a, platform_b))
    scores = np.asarray(service.score_pairs(pairs))
    order = top_k_indices(scores, k)
    exact_pairs = [pairs[int(row)] for row in order]
    exact_scores = {pair: float(score) for pair, score in zip(pairs, scores)}

    points = []
    for budget in budgets:
        links = service.top_k(
            platform_a, platform_b, k, exact=False, budget=budget
        )
        approx_pairs = [link.pair for link in links]
        points.append(
            QualityPoint(
                platform_a=platform_a,
                platform_b=platform_b,
                budget=budget,
                k=k,
                recall=recall_at_k(approx_pairs, exact_pairs),
                ndcg=ndcg_at_k(approx_pairs, exact_pairs, exact_scores),
                candidates=len(pairs),
            )
        )
    return points


def sweep_service(
    service,
    *,
    k: int = 10,
    budgets: Sequence[int] = (32, 64, 128),
) -> list[QualityPoint]:
    """The full budget sweep over every platform pair a service answers."""
    points: list[QualityPoint] = []
    for platform_a, platform_b in service.platform_pairs():
        points.extend(
            evaluate_top_k(
                service, platform_a, platform_b, k=k, budgets=budgets
            )
        )
    return points

"""Shared baseline interface and linkage-resolution helpers."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.candidates import CandidateGenerator, CandidateSet
from repro.core.hydra import LinkageResult
from repro.core.resolve import greedy_one_to_one
from repro.socialnet.platform import SocialWorld

__all__ = ["BaselineLinker"]

AccountRef = tuple[str, str]
Pair = tuple[AccountRef, AccountRef]


class BaselineLinker(ABC):
    """Base class for comparison methods.

    Subclasses implement :meth:`_fit_impl` (train whatever internal model the
    method uses) and :meth:`score_pairs`.  Candidate generation, threshold
    application and one-to-one resolution are shared so every method answers
    the same question on the same candidates.

    Parameters
    ----------
    threshold:
        Score cut for asserting a link (method-specific scale); the final
        linkage is resolved greedily one-to-one above it.
    candidate_generator:
        Blocking; defaults to HYDRA's.  The eval harness injects a shared,
        pre-generated candidate dict to keep comparisons identical.
    """

    name: str = "baseline"

    def __init__(
        self,
        *,
        threshold: float = 0.0,
        candidate_generator: CandidateGenerator | None = None,
    ):
        self.threshold = threshold
        self.candidate_generator = (
            candidate_generator if candidate_generator is not None else CandidateGenerator()
        )
        self.candidates_: dict[tuple[str, str], CandidateSet] = {}
        self._world: SocialWorld | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        world: SocialWorld,
        labeled_positive: list[Pair],
        labeled_negative: list[Pair],
        platform_pairs: list[tuple[str, str]] | None = None,
        *,
        candidates: dict[tuple[str, str], CandidateSet] | None = None,
    ) -> "BaselineLinker":
        """Generate (or adopt) candidates, then train the method's model."""
        self._world = world
        if platform_pairs is None:
            names = world.platform_names()
            platform_pairs = [
                (names[i], names[j])
                for i in range(len(names))
                for j in range(i + 1, len(names))
            ]
        self.platform_pairs_ = platform_pairs
        if candidates is not None:
            self.candidates_ = dict(candidates)
        else:
            self.candidates_ = {
                (pa, pb): self.candidate_generator.generate(world, pa, pb)
                for pa, pb in platform_pairs
            }
        self._fit_impl(world, labeled_positive, labeled_negative)
        return self

    @abstractmethod
    def _fit_impl(
        self,
        world: SocialWorld,
        labeled_positive: list[Pair],
        labeled_negative: list[Pair],
    ) -> None:
        """Train internal state; candidates are available in ``candidates_``."""

    @abstractmethod
    def score_pairs(self, pairs: list[Pair]) -> np.ndarray:
        """Linkage scores for arbitrary cross-platform pairs."""

    # ------------------------------------------------------------------
    def linkage(self, platform_a: str, platform_b: str) -> LinkageResult:
        """Score this platform pair's candidates and resolve the linkage."""
        if self._world is None:
            raise RuntimeError("baseline is not fitted; call fit() first")
        key = (platform_a, platform_b)
        flipped = False
        if key not in self.candidates_:
            key = (platform_b, platform_a)
            flipped = True
            if key not in self.candidates_:
                raise KeyError(
                    f"platform pair ({platform_a}, {platform_b}) was not fitted"
                )
        cand = self.candidates_[key]
        scores = self.score_pairs(cand.pairs)
        oriented = [(b, a) for a, b in cand.pairs] if flipped else list(cand.pairs)
        rows = greedy_one_to_one(oriented, scores, self.threshold)
        return LinkageResult(
            platform_a=platform_a,
            platform_b=platform_b,
            pairs=oriented,
            scores=scores,
            linked=[oriented[i] for i in rows],
            linked_scores=scores[rows],
        )

"""Approximate-first scoring: cut the pairs, then cut the flops.

Every speedup before this package did the *same* work faster (batch
kernels, process shards, request coalescing); this one does **less**
work, behind an explicit opt-in.  Two layers:

1. **Prune the pairs** (:mod:`repro.approx.prune`): the blocking rules
   that built a platform pair's candidate set are an ANN-style prefilter
   — candidates with more independent blocking evidence are
   overwhelmingly more likely to be true links, so ``top_k`` /
   ``link_account`` need only score the top-``budget`` blocking-rule
   survivors instead of the full candidate set.  The evidence rankings
   are maintained incrementally through ingest (the live
   :class:`~repro.index.PairCandidateIndex` rewrites them on every
   mutation), so the prefilter is always current.
2. **Cut the flops** (:mod:`repro.approx.kernel`): a
   :class:`~repro.approx.kernel.FastScorer` ranks the pruned set with
   float32 Gram blocks against ``L`` landmark rows — a Nyström
   compression of the fitted kernel expansion, selected at fit time and
   persisted in the artifact — at O(L·d) per pair instead of
   O(n_train·d).

The contract both layers obey: approximation only ever moves the
*ranking cutoff*.  The final short list is always rescored through the
exact float64 pipeline, so every score a caller receives is bit-identical
to what :meth:`~repro.serving.LinkageService.score_pairs` returns for the
same pairs, and ``exact=True`` (the default everywhere) bypasses this
package entirely.  The tolerance harness
(:mod:`repro.eval.approx_quality`) measures what the cutoff costs —
recall@k and NDCG@k against exhaustive scoring — and CI gates it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.approx.kernel import FastScorer
from repro.approx.prune import prune_rows

__all__ = ["ApproxConfig", "FastScorer", "prune_rows"]


@dataclass(frozen=True)
class ApproxConfig:
    """Knobs of the approximate scoring path.

    budget:
        How many blocking-rule survivors the prefilter keeps per query
        (per platform pair).  The recall@k curve against this knob is
        measured by :mod:`repro.eval.approx_quality`.
    num_landmarks:
        Landmark count ``L`` of the Nyström fast-path kernel; the
        ranking pass costs O(L·d) per pair.
    rescore_multiple:
        The exact float64 rescore covers ``rescore_multiple × k``
        fast-ranked survivors (clamped to the budget), so a near-boundary
        misranking by the float32 pass can still be repaired exactly.
    seed:
        Landmark-selection seed.  Fixed by default so a fast scorer
        rebuilt from a model (old artifacts without persisted landmarks)
        reproduces the fit-time selection.
    ridge:
        Tikhonov jitter on the landmark Gram solve.
    """

    budget: int = 128
    num_landmarks: int = 64
    rescore_multiple: int = 4
    seed: int = 0
    ridge: float = 1e-6

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.num_landmarks < 1:
            raise ValueError(
                f"num_landmarks must be >= 1, got {self.num_landmarks}"
            )
        if self.rescore_multiple < 1:
            raise ValueError(
                f"rescore_multiple must be >= 1, got {self.rescore_multiple}"
            )
        if self.ridge < 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")

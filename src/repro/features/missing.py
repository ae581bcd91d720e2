"""Missing-feature resolution strategies (Section 6.3, "Dealing with Missing
Information").

Two strategies, matching the paper's two model variants:

* :class:`ZeroFiller` — HYDRA-Z: "a missing feature is automatically filled
  with zeros based on the assumption that the values do exist but are not
  observed" (the previous-work behavior the paper argues against);
* :class:`CoreStructureFiller` — HYDRA-M (Eqn 18): the missing dimension of a
  pair (i, i') is filled with the average of that same similarity measure
  over the 3 x 3 pairs of their top-3 most-interacting friends,
  ``s(i,i') = (1/9) * sum_p sum_q s(i_p, i'_q)``; "if the information of
  their friends are still missing, we automatically fill the corresponding
  dimension as 0".
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from repro.features.pipeline import AccountRef, FeaturePipeline
from repro.socialnet.platform import SocialWorld

__all__ = ["MissingFiller", "ZeroFiller", "CoreStructureFiller"]


class MissingFiller(Protocol):
    """Strategy turning NaN-bearing feature matrices into complete ones."""

    def fill_matrix(
        self, pairs: list[tuple[AccountRef, AccountRef]], matrix: np.ndarray
    ) -> np.ndarray:
        """Return a copy of ``matrix`` with every NaN resolved."""
        ...  # pragma: no cover - protocol


class ZeroFiller:
    """HYDRA-Z: missing dimensions become zeros."""

    def fill_matrix(
        self, pairs: list[tuple[AccountRef, AccountRef]], matrix: np.ndarray
    ) -> np.ndarray:
        """NaN -> 0, unconditionally."""
        return np.nan_to_num(np.asarray(matrix, dtype=float), nan=0.0)


class CoreStructureFiller:
    """HYDRA-M: Eqn 18 fill from the core social network.

    Parameters
    ----------
    world:
        The social world (for the per-platform interaction graphs).
    pipeline:
        A fitted :class:`~repro.features.pipeline.FeaturePipeline`; friend-pair
        vectors are computed through it on demand and memoized, so filling a
        batch of pairs shares work across pairs with common friends.
    top_k:
        Number of most-interacting friends per side (the paper uses 3).
    pair_vector:
        Override for the friend-pair featurizer (tests / custom fills).
        When omitted, friend-pair vectors come from ``pipeline.matrix`` —
        i.e. the batch engine — and :meth:`fill_matrix` prefetches every
        friend pair a batch needs in one array-at-a-time call.
    cache_limit:
        Upper bound on each memo (friend-pair vectors, Eqn 18 averages);
        oldest entries are evicted first so a long-running service scoring
        a stream of novel pairs stays bounded.
    """

    #: default bound for the per-pair memos (vectors are D floats each)
    DEFAULT_CACHE_LIMIT = 131072

    def __init__(
        self,
        world: SocialWorld,
        pipeline: FeaturePipeline,
        *,
        top_k: int = 3,
        pair_vector: Callable[[AccountRef, AccountRef], np.ndarray] | None = None,
        cache_limit: int = DEFAULT_CACHE_LIMIT,
    ):
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        if cache_limit < 1:
            raise ValueError(f"cache_limit must be >= 1, got {cache_limit}")
        self.world = world
        self.pipeline = pipeline
        self.top_k = top_k
        self.cache_limit = cache_limit
        if pair_vector is not None:
            self._pair_vector = pair_vector
            self._matrix = None
        else:
            self._pair_vector = pipeline.pair_vector
            self._matrix = pipeline.matrix
        self._vector_cache: dict[tuple[AccountRef, AccountRef], np.ndarray] = {}
        self._friend_cache: dict[AccountRef, list[str]] = {}
        self._average_cache: dict[tuple[AccountRef, AccountRef], np.ndarray] = {}

    def __setstate__(self, state: dict) -> None:
        # fillers pickled by pre-batch-engine builds (the artifact layer
        # explicitly supports their blobs) predate several attributes
        self.__dict__.update(state)
        self.__dict__.setdefault("cache_limit", self.DEFAULT_CACHE_LIMIT)
        self.__dict__.setdefault("_friend_cache", {})
        self.__dict__.setdefault("_average_cache", {})
        if "_matrix" not in self.__dict__:
            pair_vector = self.__dict__.get("_pair_vector")
            pipeline = self.__dict__.get("pipeline")
            self._matrix = (
                pipeline.matrix
                if pipeline is not None
                and getattr(pair_vector, "__self__", None) is pipeline
                else None
            )

    def clear_memos(self) -> None:
        """Drop every memo (after the world's accounts or edges mutate).

        The friend lists, friend-pair vectors and Eqn 18 averages are pure
        caches over the current world state; online ingestion calls this so
        fills reflect the mutated social graph.
        """
        self._vector_cache.clear()
        self._friend_cache.clear()
        self._average_cache.clear()

    def _bounded_insert(self, cache: dict, key, value) -> None:
        """Insert with FIFO eviction (dicts preserve insertion order)."""
        cache[key] = value
        if len(cache) > self.cache_limit:
            del cache[next(iter(cache))]

    def _cached_vector(self, ref_a: AccountRef, ref_b: AccountRef) -> np.ndarray:
        key = (ref_a, ref_b)
        vec = self._vector_cache.get(key)
        if vec is None:
            vec = self._pair_vector(ref_a, ref_b)
            self._bounded_insert(self._vector_cache, key, vec)
        return vec

    def _top_friends(self, ref: AccountRef) -> list[str]:
        friends = self._friend_cache.get(ref)
        if friends is None:
            friends = self.world.platforms[ref[0]].graph.top_friends(
                ref[1], self.top_k
            )
            self._friend_cache[ref] = friends
        return friends

    def _featurizable(self, ref: AccountRef) -> bool:
        """Whether the pipeline can featurize ``ref``.

        A friend that was withdrawn from serving (online removal) stays in
        the social graph but has no featurized state any more; per the
        paper's rule its contribution is simply *missing* — the Eqn 18
        average skips the friend pairs that involve it.  Only enforced for
        pipeline-backed fills; a custom ``pair_vector`` override answers
        for arbitrary refs.
        """
        if self._matrix is None:
            return True
        cache = getattr(self.pipeline, "_cache", None)
        return cache is None or ref in cache

    def _prefetch_friend_vectors(
        self, pairs: list[tuple[AccountRef, AccountRef]], matrix: np.ndarray
    ) -> None:
        """Batch-compute every friend-pair vector the fill will need.

        Only rows carrying NaN trigger Eqn 18; their top-k x top-k friend
        pairs are collected, deduplicated against the memo, and featurized in
        one batched call so the fill loop below is pure cache hits.
        """
        if self._matrix is None:
            return
        needed: list[tuple[AccountRef, AccountRef]] = []
        seen: set[tuple[AccountRef, AccountRef]] = set()
        for row in np.flatnonzero(np.isnan(matrix).any(axis=1)):
            ref_a, ref_b = pairs[row]
            for fa in self._top_friends(ref_a):
                for fb in self._top_friends(ref_b):
                    key = ((ref_a[0], fa), (ref_b[0], fb))
                    if (
                        key not in self._vector_cache
                        and key not in seen
                        and self._featurizable(key[0])
                        and self._featurizable(key[1])
                    ):
                        seen.add(key)
                        needed.append(key)
        if needed:
            vectors = self._matrix(needed)
            for key, vector in zip(needed, vectors):
                self._bounded_insert(self._vector_cache, key, vector)

    def friend_pair_average(
        self, ref_a: AccountRef, ref_b: AccountRef
    ) -> np.ndarray:
        """Eqn 18: dimension-wise mean over the top-k x top-k friend pairs.

        Dimensions missing on *every* friend pair stay NaN (the caller zeros
        them, per the paper).  The average is query-independent, so it is
        memoized per pair — repeat scoring of the same pairs (the serving
        path) pays the friend-matrix reduction once.
        """
        key = (ref_a, ref_b)
        cached = self._average_cache.get(key)
        if cached is not None:
            return cached
        average = self._friend_pair_average(ref_a, ref_b)
        self._bounded_insert(self._average_cache, key, average)
        return average

    def _friend_pair_average(
        self, ref_a: AccountRef, ref_b: AccountRef
    ) -> np.ndarray:
        friends_a = self._top_friends(ref_a)
        friends_b = self._top_friends(ref_b)
        if not friends_a or not friends_b:
            return np.full(self.pipeline.dim, np.nan)
        vectors = [
            self._cached_vector((ref_a[0], fa), (ref_b[0], fb))
            for fa in friends_a
            for fb in friends_b
            if self._featurizable((ref_a[0], fa))
            and self._featurizable((ref_b[0], fb))
        ]
        if not vectors:
            return np.full(self.pipeline.dim, np.nan)
        stacked = np.vstack(vectors)
        # nanmean of an all-NaN column is NaN by design (caller zeros it);
        # compute it manually to avoid the noisy RuntimeWarning
        valid = ~np.isnan(stacked)
        counts = valid.sum(axis=0)
        sums = np.where(valid, stacked, 0.0).sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        return means

    def fill_vector(
        self, ref_a: AccountRef, ref_b: AccountRef, vector: np.ndarray
    ) -> np.ndarray:
        """Fill one pair's vector; falls back to 0 where friends are silent too."""
        vec = np.array(vector, dtype=float, copy=True)
        missing = np.isnan(vec)
        if not missing.any():
            return vec
        fill = self.friend_pair_average(ref_a, ref_b)
        vec[missing] = fill[missing]
        return np.nan_to_num(vec, nan=0.0)

    def fill_matrix(
        self, pairs: list[tuple[AccountRef, AccountRef]], matrix: np.ndarray
    ) -> np.ndarray:
        """Fill every row; ``pairs[i]`` must correspond to ``matrix[i]``."""
        matrix = np.asarray(matrix, dtype=float)
        if len(pairs) != matrix.shape[0]:
            raise ValueError(
                f"pairs ({len(pairs)}) and matrix rows ({matrix.shape[0]}) disagree"
            )
        self._prefetch_friend_vectors(pairs, matrix)
        out = matrix.copy()
        for row in np.flatnonzero(np.isnan(matrix).any(axis=1)):
            ref_a, ref_b = pairs[row]
            fill = self.friend_pair_average(ref_a, ref_b)
            mask = np.isnan(out[row])
            out[row, mask] = fill[mask]
        return np.nan_to_num(out, copy=False, nan=0.0)

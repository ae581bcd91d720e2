"""Tests for the batch-scoring service layer."""

import threading

import numpy as np
import pytest

from repro.core import HydraLinker
from repro.serving import LinkageService, LruCache


@pytest.fixture(scope="module")
def service_and_linker(small_world, labeled_split, tmp_path_factory):
    """A service loaded from an artifact, plus the in-memory linker it mirrors."""
    positives, negatives = labeled_split
    linker = HydraLinker(seed=17, num_topics=8, max_lda_docs=1500)
    linker.fit(small_world, positives, negatives)
    path = tmp_path_factory.mktemp("serving") / "artifact"
    linker.save(path)
    return LinkageService.from_artifact(path, batch_size=32), linker


class TestLruCache:
    def test_hit_miss_accounting(self):
        cache = LruCache(maxsize=2)
        calls = []
        for key in ("a", "b", "a"):
            cache.get_or_compute(key, lambda k=key: calls.append(k) or k.upper())
        assert calls == ["a", "b"]
        assert cache.hits == 1
        assert cache.misses == 2

    def test_eviction_is_lru(self):
        cache = LruCache(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh a; b is now oldest
        cache.get_or_compute("c", lambda: 3)  # evicts b
        cache.get_or_compute("a", lambda: pytest.fail("a was evicted"))
        assert len(cache) == 2

    def test_eviction_order_follows_recency_not_insertion(self):
        cache = LruCache(maxsize=3)
        for key in ("a", "b", "c"):
            cache.get_or_compute(key, lambda k=key: k)
        cache.get_or_compute("a", lambda: pytest.fail("a was evicted"))
        cache.get_or_compute("b", lambda: pytest.fail("b was evicted"))
        cache.get_or_compute("d", lambda: "d")  # "c" is least recent -> out
        recomputed = []
        cache.get_or_compute("c", lambda: recomputed.append("c") or "c")
        assert recomputed == ["c"], "FIFO eviction would have kept c"

    def test_invalidate_and_clear(self):
        cache = LruCache(maxsize=4)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False  # already gone
        recomputed = []
        cache.get_or_compute("a", lambda: recomputed.append("a") or 1)
        assert recomputed == ["a"]
        cache.clear()
        assert len(cache) == 0
        assert cache.hits + cache.misses > 0  # counters survive a clear

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            LruCache(maxsize=0)

    def test_concurrent_access_stays_consistent(self):
        """Hammered from 8 threads, the cache never corrupts its order
        bookkeeping or exceeds its bound (the gateway's reader threads)."""
        cache = LruCache(maxsize=16)
        errors: list[BaseException] = []

        def hammer(worker: int):
            try:
                for i in range(400):
                    key = (worker * 7 + i) % 40
                    value = cache.get_or_compute(key, lambda k=key: k * 2)
                    assert value == key * 2
                    if i % 13 == 0:
                        cache.invalidate(key)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 16
        assert cache.hits + cache.misses == 8 * 400


class TestLinkageService:
    def test_scores_match_linker_exactly(self, service_and_linker, true_refs):
        service, linker = service_and_linker
        assert np.array_equal(
            service.score_pairs(true_refs), linker.score_pairs(true_refs)
        )

    def test_batch_size_does_not_change_scores(self, service_and_linker, true_refs):
        service, _ = service_and_linker
        full = service.score_pairs(true_refs, batch_size=len(true_refs))
        tiny = service.score_pairs(true_refs, batch_size=3)
        # different batch shapes take different BLAS summation orders, so
        # agreement is to rounding, not bit-for-bit (that holds per-batching)
        np.testing.assert_allclose(full, tiny, rtol=0, atol=1e-9)

    def test_empty_batch(self, service_and_linker):
        service, _ = service_and_linker
        assert service.score_pairs([]).shape == (0,)

    def test_top_k_sorted_and_oriented(self, service_and_linker):
        service, _ = service_and_linker
        links = service.top_k("facebook", "twitter", k=5)
        assert len(links) == 5
        scores = [link.score for link in links]
        assert scores == sorted(scores, reverse=True)
        assert all(link.pair[0][0] == "facebook" for link in links)
        flipped = service.top_k("twitter", "facebook", k=5)
        assert all(link.pair[0][0] == "twitter" for link in flipped)
        assert {tuple(reversed(link.pair)) for link in flipped} == {
            link.pair for link in links
        }

    def test_link_account_matches_candidate_index(self, service_and_linker):
        service, linker = service_and_linker
        cand = linker.candidates_[("facebook", "twitter")]
        account = cand.pairs[0][0]
        links = service.link_account(account[0], account[1], top=100)
        expected = {p for p in cand.pairs if p[0] == account}
        assert {link.pair for link in links} == expected
        # the queried account leads each returned pair
        assert all(link.pair[0] == account for link in links)

    def test_link_account_right_side_orientation(self, service_and_linker):
        service, linker = service_and_linker
        cand = linker.candidates_[("facebook", "twitter")]
        account = cand.pairs[0][1]  # a twitter account
        links = service.link_account(account[0], account[1], top=100)
        assert links
        assert all(link.pair[0] == account for link in links)

    def test_link_account_unknown_returns_empty(self, service_and_linker):
        service, _ = service_and_linker
        assert service.link_account("facebook", "no_such_account") == []

    def test_unknown_platform_pair(self, service_and_linker):
        service, _ = service_and_linker
        with pytest.raises(KeyError):
            service.top_k("facebook", "nonexistent")

    def test_evidence_and_behavior_distance_populated(self, service_and_linker):
        service, _ = service_and_linker
        links = service.top_k("facebook", "twitter", k=3)
        for link in links:
            assert isinstance(link.evidence, frozenset)
            assert link.behavior_distance >= 0.0

    def test_stats_accumulate(self, service_and_linker, true_refs):
        service, _ = service_and_linker
        before = service.stats()
        service.score_pairs(true_refs[:4])
        after = service.stats()
        assert after.queries == before.queries + 1
        assert after.pairs_scored == before.pairs_scored + 4
        assert after.batches == before.batches + 1
        assert after.summary_cache_misses + after.summary_cache_hits > 0

    def test_internal_cache_fill_not_counted_as_workload(
        self, small_world, labeled_split, tmp_path
    ):
        linker = HydraLinker(seed=17, num_topics=8, max_lda_docs=1500)
        positives, negatives = labeled_split
        linker.fit(small_world, positives, negatives)
        service = LinkageService(linker)
        service.top_k("facebook", "twitter", k=3)
        stats = service.stats()
        # the lazy candidate-score fill must not masquerade as served pairs
        assert stats.queries == 1
        assert stats.pairs_scored == 0
        assert stats.batches == 0
        assert stats.score_cache_entries == 1

    def test_unfitted_linker_rejected(self):
        with pytest.raises(RuntimeError):
            LinkageService(HydraLinker())

    def test_invalid_batch_size(self, service_and_linker):
        service, linker = service_and_linker
        with pytest.raises(ValueError):
            LinkageService(linker, batch_size=0)
        with pytest.raises(ValueError):
            service.score_pairs([(("a", "1"), ("b", "2"))], batch_size=0)


class TestGroupedScoring:
    """The gateway-coalescing primitive: grouped == per-group, bit for bit."""

    def test_groups_bit_identical_to_standalone_calls(
        self, service_and_linker
    ):
        service, linker = service_and_linker
        pairs = list(linker.candidates_[("facebook", "twitter")].pairs)
        groups = [pairs[:3], pairs[3:4], [], pairs[4:50], pairs[2:40]]
        grouped = service.score_pairs_grouped(groups)
        assert len(grouped) == len(groups)
        for group, scores in zip(groups, grouped):
            assert np.array_equal(
                scores, service.score_pairs(list(group))
            ), "a coalesced group's scores must match scoring it alone"

    def test_groups_larger_than_batch_size_chunk_identically(
        self, service_and_linker
    ):
        service, linker = service_and_linker
        pairs = list(linker.candidates_[("facebook", "twitter")].pairs)
        group = pairs[:50]  # spans two chunks at batch_size=32
        (grouped,) = service.score_pairs_grouped([group], batch_size=20)
        assert np.array_equal(
            grouped, service.score_pairs(group, batch_size=20)
        )

    def test_counts_each_group_as_one_query(self, service_and_linker):
        service, linker = service_and_linker
        pairs = list(linker.candidates_[("facebook", "twitter")].pairs)
        before = service.stats()
        service.score_pairs_grouped([pairs[:2], pairs[2:5]])
        after = service.stats()
        assert after.queries == before.queries + 2
        assert after.pairs_scored == before.pairs_scored + 5

    def test_all_empty_groups(self, service_and_linker):
        service, _ = service_and_linker
        results = service.score_pairs_grouped([[], []])
        assert [r.shape for r in results] == [(0,), (0,)]

    def test_invalid_batch_size(self, service_and_linker):
        service, _ = service_and_linker
        with pytest.raises(ValueError):
            service.score_pairs_grouped([[]], batch_size=0)

    def test_stats_during_sharded_cache_fill_cannot_deadlock(
        self, service_and_linker
    ):
        """Lock-order regression test: a sharded top_k cache fill holds the
        score-cache lock and then takes the stats lock; stats() must gather
        its cache numbers *before* taking the stats lock, or the two
        threads deadlock (observed with workers>1 + a /stats poller)."""
        _, linker = service_and_linker
        service = LinkageService(linker, batch_size=32, workers=2)
        outcome = {}

        def fill():
            outcome["top_k"] = service.top_k("facebook", "twitter", k=3)

        def poll():
            for _ in range(200):
                outcome["stats"] = service.stats()

        with service:
            threads = [
                threading.Thread(target=fill, daemon=True),
                threading.Thread(target=poll, daemon=True),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            if any(thread.is_alive() for thread in threads):
                pytest.fail(
                    "stats() deadlocked against a sharded cache fill"
                )
        assert len(outcome["top_k"]) == 3
        assert outcome["stats"].workers == 2

    def test_concurrent_reads_bit_identical(self, service_and_linker):
        """Threaded readers (the gateway's executor shape) never corrupt
        each other's scores or the shared caches."""
        service, linker = service_and_linker
        pairs = list(linker.candidates_[("facebook", "twitter")].pairs)
        slices = [pairs[i::6] for i in range(6)]
        expected = [service.score_pairs(chunk) for chunk in slices]
        outputs: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []

        def read(index: int):
            try:
                outputs[index] = service.score_pairs(slices[index])
                service.top_k("facebook", "twitter", k=3)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=read, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for index, chunk in enumerate(slices):
            assert np.array_equal(outputs[index], expected[index])


"""Tests for the approximate-first scoring path (:mod:`repro.approx`).

The contract under test, at every layer (service, sharded router, HTTP
gateway):

* ``exact=True`` (the default) is byte-identical to the pre-approx
  behavior — the fast path is opt-in per call;
* ``exact=False`` may move the ranking *cutoff* (which pairs are
  returned) but returned *scores* are always the exact float64 bytes
  ``score_pairs`` would produce for exactly those pairs;
* the approximate path never populates the exact score cache;
* the landmark fast scorer rebuilds deterministically from a model and
  round-trips through artifacts and scoring heads byte-identically, so
  sharded and single-process deployments rank identically;
* quality at the default budget clears recall@10 >= 0.95, and a budget
  covering the whole candidate set is lossless (recall 1.0).
"""

import numpy as np
import pytest

from repro.approx import ApproxConfig, FastScorer, prune_rows
from repro.core import HydraLinker
from repro.datagen import WorldConfig, generate_world
from repro.eval import evaluate_top_k, ndcg_at_k, recall_at_k, sweep_service
from repro.eval.harness import make_label_split
from repro.gateway import GatewayClient, GatewayConfig, GatewayError, GatewayThread
from repro.persist import load_linker, save_linker
from repro.serving import LinkageService
from repro.shard import ShardedLinkageService, plan_shards
from repro.utils.ranking import top_k_indices

PLATFORM_PAIRS = [("facebook", "twitter")]


@pytest.fixture(scope="module")
def approx_blob(tmp_path_factory):
    """(fitted linker, artifact dir, K=2 plan dir) shared by the module."""
    world = generate_world(WorldConfig(num_persons=24, seed=71))
    split = make_label_split(world, PLATFORM_PAIRS, seed=71)
    linker = HydraLinker(seed=71, num_topics=8, max_lda_docs=1500)
    linker.fit(
        world, split.labeled_positive, split.labeled_negative, PLATFORM_PAIRS
    )
    artifact = tmp_path_factory.mktemp("approx") / "artifact"
    save_linker(linker, artifact)
    plan_dir = artifact.parent / "plan2"
    plan_shards(artifact, plan_dir, 2)
    return linker, artifact, plan_dir


@pytest.fixture(scope="module")
def service(approx_blob):
    _, artifact, _ = approx_blob
    return LinkageService.from_artifact(artifact)


def _scorer_bytes(scorer: FastScorer) -> tuple[bytes, bytes]:
    return scorer.landmarks.tobytes(), scorer.weights.tobytes()


class TestApproxConfig:
    def test_defaults_valid(self):
        config = ApproxConfig()
        assert config.budget >= 1 and config.num_landmarks >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget": 0},
            {"num_landmarks": 0},
            {"rescore_multiple": 0},
            {"ridge": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ApproxConfig(**kwargs)


class TestPruneRows:
    def test_orders_by_evidence_count_then_pair(self):
        evidence = [frozenset({"a"}), frozenset({"a", "b"}), frozenset()]
        pairs = [(("p", "1"), ("q", "1")), (("p", "0"), ("q", "0")),
                 (("p", "2"), ("q", "2"))]
        assert prune_rows(evidence, pairs, 2) == [1, 0]
        # full budget returns the whole pool, strongest first
        assert prune_rows(evidence, pairs, 10) == [1, 0, 2]

    def test_pair_id_breaks_evidence_ties(self):
        evidence = [frozenset({"a"}), frozenset({"b"})]
        pairs = [(("p", "9"), ("q", "9")), (("p", "1"), ("q", "1"))]
        assert prune_rows(evidence, pairs, 2) == [1, 0]

    def test_rows_subset_restricts_pool(self):
        evidence = [frozenset({"a", "b"}), frozenset({"a"}), frozenset()]
        pairs = [(("p", "0"), ("q", "0")), (("p", "1"), ("q", "1")),
                 (("p", "2"), ("q", "2"))]
        assert prune_rows(evidence, pairs, 5, rows=[2, 1]) == [1, 2]

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            prune_rows([], [], 0)


class TestFastScorer:
    def test_deterministic_rebuild(self, approx_blob):
        linker, _, _ = approx_blob
        defaults = ApproxConfig()
        first = FastScorer.from_model(
            linker.model_, num_landmarks=defaults.num_landmarks,
            seed=defaults.seed, ridge=defaults.ridge,
        )
        second = FastScorer.from_model(
            linker.model_, num_landmarks=defaults.num_landmarks,
            seed=defaults.seed, ridge=defaults.ridge,
        )
        assert _scorer_bytes(first) == _scorer_bytes(second)

    def test_artifact_round_trip(self, approx_blob):
        linker, artifact, _ = approx_blob
        loaded = load_linker(artifact)
        assert loaded.fast_scorer_ is not None
        assert _scorer_bytes(loaded.fast_scorer_) == _scorer_bytes(
            linker.fast_scorer_
        )

    def test_legacy_artifact_rebuilds_identically(
        self, approx_blob, tmp_path
    ):
        """An artifact saved before the approx section still serves
        exact=False: the scorer rebuilds from the model, byte-identical
        to the one the fit persisted."""
        linker, artifact, _ = approx_blob
        legacy = load_linker(artifact)
        legacy.fast_scorer_ = None
        save_linker(legacy, tmp_path / "legacy")
        reloaded = load_linker(tmp_path / "legacy")
        assert reloaded.fast_scorer_ is None
        rebuilt = reloaded.ensure_fast_scorer()
        assert _scorer_bytes(rebuilt) == _scorer_bytes(linker.fast_scorer_)

    def test_nan_rows_propagate(self, approx_blob):
        linker, _, _ = approx_blob
        scorer = linker.fast_scorer_
        x = np.zeros((3, scorer.landmarks.shape[1]))
        x[1, 0] = np.nan
        out = scorer.score(x)
        assert np.isnan(out[1])
        assert not np.isnan(out[0]) and not np.isnan(out[2])

    def test_approximates_exact_decision(self, approx_blob):
        """The float32 landmark scorer tracks the exact decision closely
        enough to rank with (loose bound — correctness comes from the
        exact rescore, quality from the recall gate)."""
        linker, _, _ = approx_blob
        key = PLATFORM_PAIRS[0]
        pairs = list(linker.candidates_[key].pairs)[:64]
        x = linker.featurize_pairs(pairs)
        exact = linker.score_features(x)
        fast = linker.fast_scorer_.score(x)
        spread = float(exact.max() - exact.min()) or 1.0
        assert float(np.abs(fast - exact).max()) / spread < 0.5


class TestServiceApprox:
    def test_exact_path_is_reference_ranking(self, service):
        key = service.platform_pairs()[0]
        pairs = service.candidate_pairs(key)
        scores = service.score_pairs(pairs)
        order = np.argsort(-scores, kind="stable")[:10]
        links = service.top_k(key[0], key[1], 10)
        assert [link.pair for link in links] == [
            pairs[int(row)] for row in order
        ]
        assert [link.score for link in links] == [
            float(scores[int(row)]) for row in order
        ]

    def test_default_budget_clears_recall_gate(self, service):
        key = service.platform_pairs()[0]
        points = evaluate_top_k(
            service, key[0], key[1], k=10,
            budgets=(service.approx.budget,),
        )
        assert points[0].recall >= 0.95
        assert points[0].ndcg >= 0.95

    def test_approx_scores_are_exact_bytes(self, service):
        key = service.platform_pairs()[0]
        links = service.top_k(key[0], key[1], 10, exact=False)
        rescored = service.score_pairs([link.pair for link in links])
        assert [link.score for link in links] == [
            float(score) for score in rescored
        ]

    def test_approx_scores_equal_cached_exact_scores(self, service):
        """The exact path scores the whole candidate set in one cache fill;
        row-stable scoring makes the approximate path's short-list scores
        the same bytes."""
        key = service.platform_pairs()[0]
        everything = service.top_k(
            key[0], key[1], len(service.candidate_pairs(key))
        )
        cached = {link.pair: link.score for link in everything}
        links = service.top_k(key[0], key[1], 10, exact=False)
        assert links
        assert [link.score for link in links] == [
            cached[link.pair] for link in links
        ]

    def test_approx_never_touches_score_cache(self, approx_blob):
        _, artifact, _ = approx_blob
        cold = LinkageService.from_artifact(artifact)
        key = cold.platform_pairs()[0]
        cold.top_k(key[0], key[1], 10, exact=False)
        cold.link_account(key[0], cold.candidate_pairs(key)[0][0][1],
                          top=3, exact=False)
        stats = cold.stats()
        assert stats.score_cache_entries == 0
        assert stats.score_cache_hits == 0 and stats.score_cache_misses == 0
        assert stats.approx_queries == 2
        assert stats.approx_pairs_scored > 0

    def test_link_account_approx_exact_bytes(self, service):
        key = service.platform_pairs()[0]
        account_id = service.candidate_pairs(key)[0][0][1]
        links = service.link_account(key[0], account_id, top=5, exact=False)
        assert links, "query account has candidates"
        rescored = service.score_pairs([link.pair for link in links])
        assert [link.score for link in links] == [
            float(score) for score in rescored
        ]

    def test_budget_sweep_monotone_candidates(self, service):
        largest = max(
            len(service.candidate_pairs(key)) for key in service.platform_pairs()
        )
        budgets = (8, 32, 128, largest)
        points = sweep_service(service, k=5, budgets=budgets)
        assert len(points) == len(service.platform_pairs()) * len(budgets)
        for point in points:
            assert 0.0 <= point.recall <= 1.0
            assert 0.0 <= point.ndcg <= 1.0 + 1e-9
            assert 0.0 <= point.pruned_fraction < 1.0 or point.budget >= point.candidates
            # a budget covering the whole candidate set is lossless
            if point.budget >= point.candidates:
                assert point.recall == 1.0
        assert any(point.budget >= point.candidates for point in points)

    def test_invalid_budget_rejected(self, service):
        key = service.platform_pairs()[0]
        with pytest.raises(ValueError):
            service.top_k(key[0], key[1], 5, exact=False, budget=0)

    def test_batched_distance_counters(self, service):
        key = service.platform_pairs()[0]
        before = service.stats()
        service.top_k(key[0], key[1], 5)
        after = service.stats()
        assert after.distance_batches == before.distance_batches + 1
        assert after.summary_batch_hits >= before.summary_batch_hits


class TestRouterApproxParity:
    @pytest.fixture()
    def router(self, approx_blob):
        _, _, plan_dir = approx_blob
        with ShardedLinkageService(
            plan_dir, inline=True
        ) as routed:
            yield routed

    def test_top_k_approx_bit_parity(self, approx_blob, router):
        _, artifact, _ = approx_blob
        single = LinkageService.from_artifact(artifact)
        key = single.platform_pairs()[0]
        mine = router.top_k(key[0], key[1], 10, exact=False)
        theirs = single.top_k(key[0], key[1], 10, exact=False)
        assert [link.pair for link in mine] == [
            link.pair for link in theirs
        ]
        assert [link.score for link in mine] == [
            link.score for link in theirs
        ]
        assert router.stats().approx_queries == 1

    def test_link_account_approx_bit_parity(self, approx_blob, router):
        _, artifact, _ = approx_blob
        single = LinkageService.from_artifact(artifact)
        key = single.platform_pairs()[0]
        account_id = single.candidate_pairs(key)[0][0][1]
        mine = router.link_account(key[0], account_id, top=5, exact=False)
        theirs = single.link_account(key[0], account_id, top=5, exact=False)
        assert [(link.pair, link.score) for link in mine] == [
            (link.pair, link.score) for link in theirs
        ]

    def test_degraded_approx_omits_down_shard(self, router):
        key = router.platform_pairs()[0]
        healthy = router.top_k(key[0], key[1], 10, exact=False)
        router._mark_down(router._handles[0], RuntimeError("injected"))
        degraded = router.top_k(key[0], key[1], 10, exact=False)
        assert len(degraded) <= len(healthy)
        for link in degraded:
            assert not np.isnan(link.score)
        assert router.stats().degraded_queries >= 1


class TestGatewayApprox:
    @pytest.fixture(scope="class")
    def live(self, approx_blob):
        _, artifact, _ = approx_blob
        service = LinkageService.from_artifact(artifact)
        with GatewayThread(
            service, GatewayConfig(max_wait_ms=1.0)
        ) as gateway:
            yield gateway, service

    def test_top_k_exact_false_round_trip(self, live):
        gateway, service = live
        key = service.platform_pairs()[0]
        want = service.top_k(key[0], key[1], 5, exact=False)
        with GatewayClient(gateway.host, gateway.port) as client:
            response = client.top_k(key[0], key[1], 5, exact=False)
        assert response["epoch"] == service.registry_epoch
        got = response["links"]
        assert [tuple(map(tuple, link["pair"])) for link in got] == [
            link.pair for link in want
        ]
        assert [link["score"] for link in got] == [
            link.score for link in want
        ]

    def test_link_account_exact_false_round_trip(self, live):
        gateway, service = live
        key = service.platform_pairs()[0]
        account_id = service.candidate_pairs(key)[0][0][1]
        want = service.link_account(key[0], account_id, top=3, exact=False)
        with GatewayClient(gateway.host, gateway.port) as client:
            response = client.link_account(
                key[0], account_id, top=3, exact=False
            )
        assert [link["score"] for link in response["links"]] == [
            link.score for link in want
        ]

    def test_budget_param_forwarded(self, live):
        gateway, service = live
        key = service.platform_pairs()[0]
        want = service.top_k(key[0], key[1], 5, exact=False, budget=16)
        with GatewayClient(gateway.host, gateway.port) as client:
            response = client.top_k(key[0], key[1], 5, exact=False, budget=16)
        assert [link["score"] for link in response["links"]] == [
            link.score for link in want
        ]

    def test_malformed_exact_rejected(self, live):
        gateway, _ = live
        with GatewayClient(gateway.host, gateway.port) as client:
            with pytest.raises(GatewayError) as excinfo:
                client._request(
                    "GET",
                    "/top_k?platform_a=facebook&platform_b=twitter"
                    "&exact=maybe",
                    None,
                )
        assert excinfo.value.status == 400

    def test_invalid_budget_is_400(self, live):
        gateway, _ = live
        with GatewayClient(gateway.host, gateway.port) as client:
            with pytest.raises(GatewayError) as excinfo:
                client.top_k("facebook", "twitter", 5, exact=False, budget=0)
        assert excinfo.value.status == 400


class TestQualityMetrics:
    def test_recall_of_empty_exact_is_one(self):
        assert recall_at_k(["x"], []) == 1.0

    def test_recall_counts_overlap(self):
        assert recall_at_k(["a", "b"], ["a", "c"]) == 0.5

    def test_ndcg_perfect_agreement(self):
        scores = {"a": 3.0, "b": 2.0, "c": -1.0}
        assert ndcg_at_k(["a", "b"], ["a", "b"], scores) == 1.0

    def test_ndcg_penalizes_misordering(self):
        scores = {"a": 3.0, "b": 2.0, "c": -1.0}
        swapped = ndcg_at_k(["b", "a"], ["a", "b"], scores)
        missed = ndcg_at_k(["c", "b"], ["a", "b"], scores)
        assert missed < swapped < 1.0


class TestTopKIndices:
    def test_matches_stable_argsort_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            scores = rng.choice([0.0, 1.0, 2.5, -1.0], size=rng.integers(1, 40))
            k = int(rng.integers(0, scores.size + 2))
            want = np.argsort(-scores, kind="stable")[: max(k, 0)]
            got = top_k_indices(scores, k)
            assert np.array_equal(got, want)

    def test_nan_sorts_last(self):
        scores = np.array([1.0, np.nan, 3.0, np.nan, 2.0])
        assert top_k_indices(scores, 3).tolist() == [2, 4, 0]
        assert top_k_indices(scores, 5).tolist() == [2, 4, 0, 1, 3]

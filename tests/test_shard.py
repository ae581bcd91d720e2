"""Tests for the distributed shard tier: planner, assignment, router.

The router runs in ``inline`` mode (sandboxed in-process shard states) so
the suite stays fast and deterministic; the rebalanced-plan parity test
also runs it over real worker processes.  SIGKILL failure injection and
journal-replay recovery under a live gateway are exercised by
``tests/test_chaos.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import HydraLinker
from repro.datagen import WorldConfig, generate_world
from repro.eval.harness import make_label_split
from repro.persist import (
    ArtifactError,
    artifact_summary,
    load_scoring_head,
    save_linker,
    save_scoring_head,
)
from repro.serving import LinkageService, holdout_split
from repro.serving import service as service_module
from repro.shard import (
    ExplicitAssignment,
    HashAssignment,
    ShardPlanError,
    ShardUnavailableError,
    ShardedLinkageService,
    assignment_from_json,
    load_shard_plan,
    plan_shards,
    rebalance_assignment,
    rebalance_plan,
)
from repro.shard import tasks as shard_tasks
from repro.wal import capture_payload, payload_to_json

PLATFORM_PAIRS = [("facebook", "twitter")]


@pytest.fixture(scope="module")
def shard_blob(tmp_path_factory):
    """(artifact dir, plan dir (K=2), full world, held refs, raw payloads)."""
    world = generate_world(WorldConfig(num_persons=20, seed=33))
    base, held = holdout_split(world, 2)
    split = make_label_split(base, PLATFORM_PAIRS, seed=33)
    linker = HydraLinker(seed=33, num_topics=8, max_lda_docs=1500)
    linker.fit(
        base, split.labeled_positive, split.labeled_negative, PLATFORM_PAIRS
    )
    artifact = tmp_path_factory.mktemp("shard") / "artifact"
    save_linker(linker, artifact)
    plan_dir = artifact.parent / "plan2"
    plan_shards(artifact, plan_dir, 2)
    raw = [
        payload_to_json(capture_payload(world, ref)) for ref in held
    ]
    return artifact, plan_dir, world, list(held), raw


@pytest.fixture()
def single(shard_blob):
    artifact, _, _, _, _ = shard_blob
    with LinkageService.from_artifact(artifact) as service:
        yield service


@pytest.fixture()
def router(shard_blob):
    _, plan_dir, _, _, _ = shard_blob
    with ShardedLinkageService(
        plan_dir, inline=True
    ) as service:
        yield service


class TestAssignment:
    def test_hash_assignment_is_stable_and_in_range(self):
        a = HashAssignment(4, seed=3)
        b = HashAssignment(4, seed=3)
        refs = [("facebook", f"fa{i:06d}") for i in range(200)]
        shards = [a.shard_of(ref) for ref in refs]
        assert shards == [b.shard_of(ref) for ref in refs]
        assert all(0 <= s < 4 for s in shards)
        # the hash must actually spread load, not pile onto one shard
        assert len(set(shards)) == 4

    def test_seed_changes_the_partition(self):
        refs = [("twitter", f"tw{i:06d}") for i in range(64)]
        a = [HashAssignment(4, seed=0).shard_of(ref) for ref in refs]
        b = [HashAssignment(4, seed=1).shard_of(ref) for ref in refs]
        assert a != b

    def test_hash_json_round_trip(self):
        original = HashAssignment(3, seed=7)
        restored = assignment_from_json(
            json.loads(json.dumps(original.to_json()))
        )
        refs = [("facebook", f"fa{i:06d}") for i in range(50)]
        assert [restored.shard_of(r) for r in refs] == [
            original.shard_of(r) for r in refs
        ]

    def test_explicit_pins_win_and_fallback_covers_the_rest(self):
        pinned = {("facebook", "fa000001"): 2}
        assignment = ExplicitAssignment(
            pinned, 3, fallback=HashAssignment(3, seed=5)
        )
        assert assignment.shard_of(("facebook", "fa000001")) == 2
        stranger = ("facebook", "fa999999")
        assert assignment.shard_of(stranger) == HashAssignment(
            3, seed=5
        ).shard_of(stranger)

    def test_explicit_json_round_trip(self):
        original = ExplicitAssignment(
            {("facebook", "fa000001"): 1, ("twitter", "tw000009"): 0},
            2,
            fallback=HashAssignment(2, seed=9),
        )
        restored = assignment_from_json(
            json.loads(json.dumps(original.to_json()))
        )
        refs = [("facebook", "fa000001"), ("twitter", "tw000009"),
                ("twitter", "tw555555")]
        assert [restored.shard_of(r) for r in refs] == [
            original.shard_of(r) for r in refs
        ]

    def test_out_of_range_pin_is_rejected(self):
        with pytest.raises(ValueError):
            ExplicitAssignment({("facebook", "x"): 5}, 2)

    def test_mismatched_fallback_is_rejected(self):
        with pytest.raises(ValueError):
            ExplicitAssignment({}, 2, fallback=HashAssignment(3))

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            assignment_from_json({"kind": "mystery"})


class TestScoringHead:
    def test_round_trip_scores_match_the_linker(self, shard_blob, tmp_path):
        artifact, _, _, _, _ = shard_blob
        linker = HydraLinker.load(artifact)
        head_dir = tmp_path / "head"
        save_scoring_head(linker, head_dir)
        head = load_scoring_head(head_dir)
        pairs = sorted(linker.global_pairs_)[:24]
        x = linker.featurize_pairs(pairs)
        expected = linker.model_.decision_function(x)
        actual = head["model"].decision_function(x)
        assert np.array_equal(expected, actual)
        assert head["feature_names"] == list(linker.pipeline.feature_names)

    def test_unfitted_linker_is_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            save_scoring_head(HydraLinker(), tmp_path / "head")

    def test_missing_head_is_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_scoring_head(tmp_path / "nothing")


class TestPlanner:
    def test_plan_is_deterministic(self, shard_blob, tmp_path):
        artifact, plan_dir, _, _, _ = shard_blob
        again = tmp_path / "again"
        plan_shards(artifact, again, 2)
        original = (plan_dir / "shard_plan.json").read_text()
        repeat = (again / "shard_plan.json").read_text()
        assert json.loads(original) == json.loads(repeat)

    def test_owned_sets_partition_the_account_universe(self, shard_blob):
        artifact, plan_dir, _, _, _ = shard_blob
        topology = load_shard_plan(plan_dir)
        linker = HydraLinker.load(artifact)
        universe = set(linker.pipeline.packed_store.refs)
        owned = [set() for _ in range(topology.num_shards)]
        for ref in universe:
            owned[topology.assignment.shard_of(ref)].add(ref)
        for i, info in enumerate(topology.shards):
            assert info.owned_accounts == len(owned[i])
        assert sum(len(part) for part in owned) == len(universe)

    def test_every_entry_is_owned_by_its_left_refs_shard(self, shard_blob):
        _, plan_dir, _, _, _ = shard_blob
        topology = load_shard_plan(plan_dir)
        for entries in topology.entries.values():
            assert entries, "a fitted key must have candidates"
            for entry in entries:
                assert entry.owner == topology.assignment.shard_of(
                    entry.pair[0]
                )

    def test_routed_pairs_cover_the_global_candidate_set(
        self, shard_blob, single
    ):
        _, plan_dir, _, _, _ = shard_blob
        topology = load_shard_plan(plan_dir)
        for key in single.platform_pairs():
            assert [e.pair for e in topology.entries[key]] == (
                single.candidate_pairs(key)
            )

    def test_shard_artifacts_carry_their_manifest_section(self, shard_blob):
        _, plan_dir, _, _, _ = shard_blob
        topology = load_shard_plan(plan_dir)
        for info in topology.shards:
            summary = artifact_summary(topology.shard_path(info.index))
            section = summary["shard"]
            assert section["index"] == info.index
            assert section["num_shards"] == topology.num_shards
            assert len(section["served"]) == info.served_accounts

    def test_mismatched_assignment_is_rejected(self, shard_blob, tmp_path):
        artifact, _, _, _, _ = shard_blob
        with pytest.raises(ShardPlanError):
            plan_shards(
                artifact, tmp_path / "bad", 2,
                assignment=HashAssignment(3),
            )

    def test_loading_a_non_plan_directory_fails(self, tmp_path):
        with pytest.raises(ShardPlanError):
            load_shard_plan(tmp_path / "nope")


class TestRouterReadParity:
    def test_score_pairs_is_bit_identical(self, single, router):
        key = single.platform_pairs()[0]
        pairs = single.candidate_pairs(key)
        assert np.array_equal(
            single.score_pairs(pairs), router.score_pairs(pairs)
        )

    def test_custom_batch_size_is_bit_identical(
        self, single, router, monkeypatch
    ):
        key = single.platform_pairs()[0]
        pairs = single.candidate_pairs(key)
        # the single-process service featurizes and decides 7 pairs at a
        # time, the router decides the whole request in one call
        monkeypatch.setattr(service_module, "SCORE_CHUNK", 7)
        assert np.array_equal(
            single.score_pairs(pairs), router.score_pairs(pairs)
        )

    def test_grouped_scoring_is_bit_identical(self, single, router):
        key = single.platform_pairs()[0]
        pairs = single.candidate_pairs(key)
        groups = [pairs[:5], [], pairs[5:17], pairs[17:]]
        # the gateway's coalesced flush: one router call, sliced per group
        scores = router.score_pairs(pairs)
        lo = 0
        for group in groups:
            assert np.array_equal(
                scores[lo : lo + len(group)], single.score_pairs(group)
            )
            lo += len(group)

    def test_top_k_and_link_account_match(self, single, router):
        assert router.top_k("facebook", "twitter", 7) == single.top_k(
            "facebook", "twitter", 7
        )
        # flipped orientation resolves identically
        assert router.top_k("twitter", "facebook", 4) == single.top_k(
            "twitter", "facebook", 4
        )
        ref = single.candidate_pairs(("facebook", "twitter"))[0][0]
        assert router.link_account(ref[0], ref[1]) == single.link_account(
            ref[0], ref[1]
        )

    def test_catalog_surface_matches(self, single, router):
        assert router.platform_pairs() == single.platform_pairs()
        assert router.num_candidates() == single.num_candidates()
        key = single.platform_pairs()[0]
        assert router.candidate_pairs(key) == single.candidate_pairs(key)
        with pytest.raises(KeyError):
            router.candidate_pairs(("facebook", "moonbook"))
        with pytest.raises(KeyError):
            router.top_k("facebook", "moonbook")

    def test_empty_batch_and_unserved_pair(self, router):
        assert router.score_pairs([]).shape == (0,)
        ghost = (("facebook", "fa424242"), ("twitter", "tw424242"))
        with pytest.raises(KeyError):
            router.score_pairs([ghost])

    def test_score_cache_serves_repeat_top_k(self, router):
        router.top_k("facebook", "twitter", 3)
        before = router.stats().score_cache_hits
        router.top_k("facebook", "twitter", 3)
        assert router.stats().score_cache_hits > before


class TestRouterMutations:
    def test_ingest_keeps_plan_time_scores_bit_identical(self, shard_blob):
        artifact, plan_dir, world, held, raw = shard_blob
        from repro.wal.payload import apply_payload, payload_from_json

        with LinkageService.from_artifact(
            artifact
        ) as single, ShardedLinkageService(
            plan_dir, inline=True
        ) as router:
            key = single.platform_pairs()[0]
            plan_pairs = single.candidate_pairs(key)
            for payload in raw:
                apply_payload(single.world, payload_from_json(payload))
            single.add_accounts(held, score=False)
            report = router.ingest_payloads(held, raw, score=True)
            assert report.epoch == 1
            assert router.registry_epoch == 1
            # the hard guarantee: every plan-time pair still scores to the
            # byte, because ghost ingestion keeps resident fills exact
            assert np.array_equal(
                single.score_pairs(plan_pairs),
                router.score_pairs(plan_pairs),
            )
            # owner-created pairs are served and scoreable (not NaN)
            new_pairs = [
                pair for pair in router.candidate_pairs(key)
                if pair not in set(plan_pairs)
            ]
            assert new_pairs, "ingest should create candidates"
            assert not np.isnan(router.score_pairs(new_pairs)).any()
            assert all(
                link.score == link.score for link in report.links
            )

    def test_ingest_validates_payload_alignment(self, router, shard_blob):
        _, _, _, held, raw = shard_blob
        with pytest.raises(ValueError):
            router.ingest_payloads(held, raw[:-1])
        with pytest.raises(ValueError):
            router.ingest_payloads([held[1]], [raw[0]])

    def test_ingest_is_deterministic_across_deployments(self, shard_blob):
        _, plan_dir, _, held, raw = shard_blob
        # two inline routers interleave their shards' states in this
        # process; each must run sandboxed and leave the module state alone
        outer = shard_tasks.worker_state()
        outer_items = dict(outer)
        with ShardedLinkageService(
            plan_dir, inline=True
        ) as a, ShardedLinkageService(
            plan_dir, inline=True
        ) as b:
            a.ingest_payloads(held, raw, score=False)
            b.ingest_payloads(held, raw, score=False)
            key = a.platform_pairs()[0]
            pairs = a.candidate_pairs(key)
            assert pairs == b.candidate_pairs(key)
            assert np.array_equal(a.score_pairs(pairs), b.score_pairs(pairs))
        assert shard_tasks.worker_state() is outer
        assert outer == outer_items

    def test_remove_account_mirrors_single_shard(self, shard_blob):
        artifact, plan_dir, _, _, _ = shard_blob
        with LinkageService.from_artifact(
            artifact
        ) as single, ShardedLinkageService(
            plan_dir, inline=True
        ) as router:
            key = single.platform_pairs()[0]
            victim = single.candidate_pairs(key)[0][0]
            single.remove_account(victim)
            removed = router.remove_account(victim)
            assert removed > 0
            assert router.registry_epoch == 1
            # the victim is fully withdrawn from the routed catalog; the
            # promoted replacement pairs may differ from single-process
            # (shard-local blocking re-ranks against shard-local
            # registries), so full catalog equality is not a contract here
            survivors = set(router.candidate_pairs(key))
            assert all(victim not in pair for pair in survivors)
            assert all(
                victim not in pair
                for pair in single.candidate_pairs(key)
            )
            # a second identical deployment removes identically
            with ShardedLinkageService(
                plan_dir, inline=True
            ) as twin:
                assert twin.remove_account(victim) == removed
                assert twin.candidate_pairs(key) == (
                    router.candidate_pairs(key)
                )
            with pytest.raises(KeyError):
                router.remove_account(("facebook", "fa424242"))
            # the failed removal must not burn an epoch or journal slot
            assert router.registry_epoch == 1
            assert len(router._journal) == 1


class TestDegradedModeAndRestart:
    def test_down_shard_yields_nan_rows_and_marker(self, shard_blob):
        _, plan_dir, _, _, _ = shard_blob
        with ShardedLinkageService(
            plan_dir, inline=True
        ) as router:
            key = router.platform_pairs()[0]
            pairs = router.candidate_pairs(key)
            healthy = router.score_pairs(pairs)
            router._handles[0].alive = False
            degraded = router.score_pairs(pairs)
            for i, pair in enumerate(pairs):
                if router._route_pair(pair) == 0:
                    assert np.isnan(degraded[i])
                else:
                    assert degraded[i] == healthy[i]
            stats = router.stats()
            assert stats.shards_unavailable == [0]
            assert stats.degraded_queries > 0
            assert not stats.shards[0]["alive"]

    def test_degraded_top_k_drops_only_dead_shard_pairs(self, shard_blob):
        _, plan_dir, _, _, _ = shard_blob
        with ShardedLinkageService(
            plan_dir, inline=True
        ) as router:
            key = router.platform_pairs()[0]
            universe = len(router.candidate_pairs(key))
            router._handles[0].alive = False
            partial = router.top_k("facebook", "twitter", 10)
            with ShardedLinkageService(
                plan_dir, inline=True
            ) as healthy:
                full = healthy.top_k("facebook", "twitter", universe)
            live = [
                link for link in full
                if router._route_pair(link.pair) != 0
            ][:10]
            assert [
                (link.pair, link.score) for link in partial
            ] == [(link.pair, link.score) for link in live]

    def test_degraded_scores_are_never_cached(self, shard_blob):
        _, plan_dir, _, _, _ = shard_blob
        with ShardedLinkageService(
            plan_dir, inline=True
        ) as router:
            router._handles[0].alive = False
            router.top_k("facebook", "twitter", 3)
            assert len(router._score_cache) == 0
            router._handles[0].alive = True
            router._handles[0].inline_state = None
            router.restart_shard(0)
            healthy = router.top_k("facebook", "twitter", 3)
            assert len(router._score_cache) == 1
            assert not any(np.isnan(link.score) for link in healthy)

    def test_writes_to_a_down_owner_are_rejected(self, shard_blob):
        _, plan_dir, _, held, raw = shard_blob
        with ShardedLinkageService(
            plan_dir, inline=True
        ) as router:
            down = 0
            router._handles[down].alive = True
            victims = [
                ref for ref in held if router._route_account(ref) == down
            ]
            assert victims, "holdout should land refs on shard 0"
            router._handles[down].alive = False
            with pytest.raises(ShardUnavailableError) as caught:
                router.ingest_payloads(
                    victims, [raw[held.index(ref)] for ref in victims]
                )
            assert caught.value.shards == [down]
            assert router.registry_epoch == 0
            assert not router._journal
            key = router.platform_pairs()[0]
            resident = next(
                pair[0] for pair in router.candidate_pairs(key)
                if router._route_account(pair[0]) == down
            )
            with pytest.raises(ShardUnavailableError):
                router.remove_account(resident)

    def test_restart_replays_the_journal(self, shard_blob):
        _, plan_dir, _, held, raw = shard_blob
        with ShardedLinkageService(
            plan_dir, inline=True
        ) as crashed, ShardedLinkageService(
            plan_dir, inline=True
        ) as steady:
            key = crashed.platform_pairs()[0]
            # shard 1 goes down; a write owned elsewhere still lands
            crashed._handles[1].alive = False
            survivors = [
                ref for ref in held
                if crashed._route_account(ref) != 1
            ]
            payloads = [raw[held.index(ref)] for ref in survivors]
            crashed.ingest_payloads(survivors, payloads, score=False)
            steady.ingest_payloads(survivors, payloads, score=False)
            health = crashed.restart_shard(1)
            assert health["restarts"] == 1
            assert crashed._handles[1].alive
            assert crashed.shards_unavailable() == []
            # the restarted fleet is bit-identical to one that never died
            pairs = steady.candidate_pairs(key)
            assert crashed.candidate_pairs(key) == pairs
            assert np.array_equal(
                crashed.score_pairs(pairs), steady.score_pairs(pairs)
            )
            assert (
                crashed._handles[1].expected_epoch
                == steady._handles[1].expected_epoch
            )


class TestRebalance:
    def test_rebalance_levels_owned_pairs(self, shard_blob, tmp_path):
        _, plan_dir, _, _, _ = shard_blob
        topology = load_shard_plan(plan_dir)
        assignment = rebalance_assignment(topology)
        assert isinstance(assignment, ExplicitAssignment)
        before = [info.owned_pairs for info in topology.shards]
        rebalanced = rebalance_plan(plan_dir, tmp_path / "rebalanced")
        after = [info.owned_pairs for info in rebalanced.shards]
        assert sum(after) >= sum(before) - max(before)  # same universe
        assert max(after) - min(after) <= max(before) - min(before)

    def test_rebalanced_plan_still_serves_bit_identical(
        self, shard_blob, single, tmp_path
    ):
        _, plan_dir, _, _, _ = shard_blob
        rebalanced = rebalance_plan(plan_dir, tmp_path / "plan")
        key = single.platform_pairs()[0]
        pairs = single.candidate_pairs(key)
        # inline=False: real per-shard worker processes, pickled IPC
        for inline in (True, False):
            with ShardedLinkageService(
                rebalanced, inline=inline
            ) as router:
                assert router.candidate_pairs(key) == pairs
                assert np.array_equal(
                    single.score_pairs(pairs), router.score_pairs(pairs)
                )
                assert router.top_k("facebook", "twitter", 6) == single.top_k(
                    "facebook", "twitter", 6
                )

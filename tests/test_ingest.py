"""Online ingestion: parity with fit-time-built state, epochs, removal.

The contract under test: a service that was fitted on N accounts and then
absorbed M more through :meth:`~repro.serving.LinkageService.add_accounts`
must be indistinguishable — same candidate sets, bit-identical scores —
from a service whose store and candidate index were built over all N+M accounts by the fit-time bulk code path
(:meth:`~repro.core.hydra.HydraLinker.rebuild_serving_state`, i.e. a full
re-pack plus candidate regeneration with the same frozen models).
"""

import pickle

import numpy as np
import pytest

from repro.core import HydraLinker
from repro.datagen import WorldConfig, generate_world
from repro.eval.harness import make_label_split
from repro.persist import artifact_summary, load_linker
from repro.serving import LinkageService, holdout_split
from repro.socialnet import Account, Profile, subset_world, transplant_account
from repro.socialnet.storage import BehaviorEvent

PLATFORM_PAIRS = [("facebook", "twitter")]
KEY = PLATFORM_PAIRS[0]
SEED = 29
HELD_PER_PLATFORM = 4


@pytest.fixture(scope="module")
def ingest_env(tmp_path_factory):
    """A full world, its held-out arrivals, and an artifact fit on the rest."""
    world = generate_world(WorldConfig(num_persons=14, seed=SEED))
    base, held_refs = holdout_split(world, HELD_PER_PLATFORM)
    split = make_label_split(base, PLATFORM_PAIRS, seed=SEED)
    linker = HydraLinker(seed=SEED, num_topics=6, max_lda_docs=600)
    linker.fit(
        base, split.labeled_positive, split.labeled_negative, PLATFORM_PAIRS
    )
    path = tmp_path_factory.mktemp("ingest") / "artifact"
    linker.save(path)
    return world, held_refs, str(path)


def _grown_linker(ingest_env):
    """A fresh copy of the fitted linker whose world received the arrivals."""
    world, held_refs, path = ingest_env
    linker = load_linker(path)
    refs = [
        transplant_account(world, linker._world, platform, account_id)
        for platform, account_id in held_refs
    ]
    return linker, refs


@pytest.fixture(scope="module")
def parity_pair(ingest_env):
    """(ingested service, bulk-rebuilt linker) over identical grown worlds."""
    linker_inc, refs = _grown_linker(ingest_env)
    linker_bulk, _ = _grown_linker(ingest_env)
    service = LinkageService(linker_inc)
    report = service.add_accounts(refs)
    linker_bulk.rebuild_serving_state()
    return service, linker_bulk, refs, report


class TestIngestParity:
    def test_candidates_match_bulk_rebuild(self, parity_pair):
        service, linker_bulk, _, _ = parity_pair
        cand_inc = service.linker.candidates_[KEY]
        cand_bulk = linker_bulk.candidates_[KEY]
        assert set(cand_inc.pairs) == set(cand_bulk.pairs)
        evidence_inc = dict(zip(cand_inc.pairs, cand_inc.evidence))
        evidence_bulk = dict(zip(cand_bulk.pairs, cand_bulk.evidence))
        assert evidence_inc == evidence_bulk
        prematched_inc = {cand_inc.pairs[i] for i in cand_inc.prematched}
        prematched_bulk = {cand_bulk.pairs[i] for i in cand_bulk.prematched}
        assert prematched_inc == prematched_bulk

    def test_scores_bit_identical_to_fit_time_built(self, parity_pair):
        service, linker_bulk, _, _ = parity_pair
        pairs = sorted(linker_bulk.candidates_[KEY].pairs)
        bulk_service = LinkageService(linker_bulk)
        assert np.array_equal(
            service.score_pairs(pairs), bulk_service.score_pairs(pairs)
        )

    def test_top_k_matches_bulk(self, parity_pair):
        service, linker_bulk, _, _ = parity_pair
        bulk_service = LinkageService(linker_bulk)
        got = {(link.pair, link.score) for link in service.top_k(*KEY, k=20)}
        expected = {
            (link.pair, link.score) for link in bulk_service.top_k(*KEY, k=20)
        }
        assert got == expected

    def test_batched_ingest_equals_single_batch(self, ingest_env):
        one_shot, refs = _grown_linker(ingest_env)
        two_step, _ = _grown_linker(ingest_env)
        service_one = LinkageService(one_shot)
        service_one.add_accounts(refs, score=False)
        service_two = LinkageService(two_step)
        service_two.add_accounts(refs[: len(refs) // 2], score=False)
        service_two.add_accounts(refs[len(refs) // 2:], score=False)
        assert set(one_shot.candidates_[KEY].pairs) == set(
            two_step.candidates_[KEY].pairs
        )
        pairs = sorted(one_shot.candidates_[KEY].pairs)
        assert np.array_equal(
            service_one.score_pairs(pairs), service_two.score_pairs(pairs)
        )
        assert service_two.registry_epoch == 2

    def test_new_accounts_surface_in_queries(self, parity_pair):
        service, _, refs, report = parity_pair
        assert report.pairs_added > 0
        assert report.links and report.links[0].score == max(
            link.score for link in report.links
        )
        served = {
            ref for pair in service.linker.candidates_[KEY].pairs for ref in pair
        }
        new_served = [ref for ref in refs if ref in served]
        assert new_served, "no ingested account entered the candidate index"
        ref = new_served[0]
        links = service.link_account(ref[0], ref[1], top=5)
        assert links and all(link.pair[0] == ref for link in links)


class TestIngestLifecycle:
    def test_epoch_and_stats(self, ingest_env):
        linker, refs = _grown_linker(ingest_env)
        service = LinkageService(linker)
        assert service.registry_epoch == 0
        service.top_k(*KEY, k=3)  # warm the score cache
        assert service.stats().score_cache_entries == 1
        report = service.add_accounts(refs, score=False)
        assert report.epoch == 1
        stats = service.stats()
        assert stats.registry_epoch == 1
        assert stats.accounts_ingested == len(refs)
        assert stats.ingest_batches == 1
        # the mutated platform pair's cached scores were invalidated
        assert stats.score_cache_entries == 0

    def test_empty_ingest_is_noop(self, ingest_env):
        linker, _ = _grown_linker(ingest_env)
        service = LinkageService(linker)
        report = service.add_accounts([])
        assert report.pairs_added == 0 and report.epoch == 0

    def test_unknown_account_rejected(self, ingest_env):
        linker, _ = _grown_linker(ingest_env)
        service = LinkageService(linker)
        with pytest.raises(KeyError):
            service.add_accounts([("facebook", "never_registered")])

    def test_double_ingest_rejected(self, ingest_env):
        linker, refs = _grown_linker(ingest_env)
        service = LinkageService(linker)
        service.add_accounts(refs[:1], score=False)
        with pytest.raises(ValueError):
            service.add_accounts(refs[:1], score=False)

    def test_out_of_window_events_rejected(self, ingest_env):
        linker, _ = _grown_linker(ingest_env)
        platform = linker._world.platforms["twitter"]
        platform.ingest_account(
            Account("tw_future", "twitter", Profile(username="futurist")),
            [BehaviorEvent("tw_future", "checkin", 9.9e5, (1.0, 2.0))],
        )
        service = LinkageService(linker)
        with pytest.raises(ValueError, match="observation window"):
            service.add_accounts([("twitter", "tw_future")])

    def test_mutated_linker_persists_and_reloads(self, ingest_env, tmp_path):
        linker, refs = _grown_linker(ingest_env)
        service = LinkageService(linker)
        service.add_accounts(refs, score=False)
        pairs = sorted(linker.candidates_[KEY].pairs)
        expected = service.score_pairs(pairs)
        path = tmp_path / "mutated"
        linker.save(path)
        assert artifact_summary(path)["ingest_epoch"] == 1
        reloaded = load_linker(path)
        assert reloaded.ingest_epoch_ == 1
        assert np.array_equal(
            LinkageService(reloaded).score_pairs(pairs),
            expected,
        )


class TestRemoval:
    def test_remove_matches_bulk_on_shrunk_world(self, ingest_env):
        linker_inc, refs = _grown_linker(ingest_env)
        service = LinkageService(linker_inc)
        service.add_accounts(refs, score=False)
        victim = refs[0]
        service.remove_account(victim)
        assert all(
            victim not in pair
            for pair in linker_inc.candidates_[KEY].pairs
        )
        with pytest.raises(KeyError):
            service.remove_account(victim)

        linker_bulk, _ = _grown_linker(ingest_env)
        bulk_world = linker_bulk._world
        bulk_world.platforms[victim[0]].accounts.pop(victim[1])
        linker_bulk.rebuild_serving_state()
        assert set(linker_inc.candidates_[KEY].pairs) == set(
            linker_bulk.candidates_[KEY].pairs
        )
        pairs = sorted(linker_bulk.candidates_[KEY].pairs)
        assert np.array_equal(
            service.score_pairs(pairs),
            LinkageService(linker_bulk).score_pairs(pairs),
        )

    def test_removed_account_no_longer_scorable(self, ingest_env):
        linker, refs = _grown_linker(ingest_env)
        service = LinkageService(linker)
        service.add_accounts(refs, score=False)
        victim = refs[0]
        partner = (("twitter", refs[-1][1]) if victim[0] == "facebook"
                   else ("facebook", refs[0][1]))
        service.remove_account(victim)
        assert service.registry_epoch == 2
        with pytest.raises(KeyError):
            service.score_pairs([(victim, partner)])


class TestWorldMutationHelpers:
    def test_subset_world_filters_everything(self, ingest_env):
        world, held_refs, _ = ingest_env
        keep = {
            name: world.platforms[name].account_ids()[:3]
            for name in world.platform_names()
        }
        small = subset_world(world, keep)
        for name in small.platform_names():
            assert small.platforms[name].account_ids() == keep[name]
            assert small.platforms[name].events.finalized
            for account in small.platforms[name].events.accounts():
                assert account in keep[name]
        assert all(
            account_id in keep[name]
            for (name, account_id) in small.identity
        )

    def test_subset_world_unknown_account_rejected(self, ingest_env):
        world, _, _ = ingest_env
        with pytest.raises(KeyError):
            subset_world(world, {"twitter": ["nope"]})

    def test_transplant_preserves_events_and_edges(self, ingest_env):
        world, held_refs, _ = ingest_env
        base, _ = holdout_split(world, HELD_PER_PLATFORM)
        base_copy = pickle.loads(pickle.dumps(base))
        platform, account_id = held_refs[0]
        transplant_account(world, base_copy, platform, account_id)
        src = world.platforms[platform]
        dst = base_copy.platforms[platform]
        assert account_id in dst.accounts
        for kind in ("post", "checkin", "media"):
            assert dst.events.count(account_id, kind) == src.events.count(
                account_id, kind
            )
        for other in dst.graph.neighbors(account_id):
            assert dst.graph.weight(account_id, other) == src.graph.weight(
                account_id, other
            )

    def test_event_store_extend_matches_fresh_finalize(self, ingest_env):
        world, _, _ = ingest_env
        src = world.platforms["twitter"]
        account_id = src.account_ids()[0]
        events = [
            event
            for kind in ("post", "checkin", "media")
            for event in src.events.events_for(account_id, kind)
        ]
        from repro.socialnet import EventStore

        incremental = EventStore()
        incremental.finalize()
        incremental.extend(events)
        bulk = EventStore()
        for event in events:
            bulk.add_event(event)
        bulk.finalize()
        for kind in ("post", "checkin", "media"):
            assert np.array_equal(
                incremental.timestamps_for(account_id, kind),
                bulk.timestamps_for(account_id, kind),
            )
            assert incremental.payloads_for(account_id, kind) == (
                bulk.payloads_for(account_id, kind)
            )

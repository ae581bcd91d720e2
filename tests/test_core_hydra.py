"""End-to-end tests for the HYDRA estimator (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import HydraLinker
from repro.core.resolve import greedy_one_to_one


@pytest.fixture(scope="module")
def fitted_linker(small_world, true_refs, labeled_split):
    positives, negatives = labeled_split
    linker = HydraLinker(seed=17, num_topics=8, max_lda_docs=1500)
    linker.fit(small_world, positives, negatives)
    return linker


class TestHydraLinker:
    def test_linkage_quality(self, fitted_linker, true_refs, labeled_split):
        positives, _ = labeled_split
        result = fitted_linker.linkage("facebook", "twitter")
        true_set = set(true_refs)
        train = set(positives)
        linked_eval = [p for p in result.linked if p not in train]
        gold = true_set - train
        tp = sum(1 for p in linked_eval if p in gold)
        precision = tp / len(linked_eval) if linked_eval else 0.0
        recall = tp / len(gold)
        assert precision >= 0.8
        assert recall >= 0.6

    def test_orientation_flip(self, fitted_linker):
        forward = fitted_linker.linkage("facebook", "twitter")
        backward = fitted_linker.linkage("twitter", "facebook")
        flipped = {(b, a) for a, b in backward.linked}
        assert flipped == set(forward.linked)

    def test_one_to_one_enforced(self, fitted_linker):
        result = fitted_linker.linkage("facebook", "twitter")
        lefts = [a for a, _ in result.linked]
        rights = [b for _, b in result.linked]
        assert len(lefts) == len(set(lefts))
        assert len(rights) == len(set(rights))

    def test_scores_align_with_pairs(self, fitted_linker):
        result = fitted_linker.linkage("facebook", "twitter")
        assert len(result.scores) == len(result.pairs)
        assert len(result.linked_scores) == len(result.linked)
        if len(result.linked_scores):
            assert (result.linked_scores > fitted_linker.threshold).all()

    def test_score_pairs_arbitrary(self, fitted_linker, true_refs):
        scores = fitted_linker.score_pairs(true_refs[:5])
        assert scores.shape == (5,)
        assert fitted_linker.score_pairs([]).shape == (0,)

    def test_true_pairs_score_above_false(self, fitted_linker, true_refs):
        true_scores = fitted_linker.score_pairs(true_refs[:10])
        false_pairs = [
            (true_refs[i][0], true_refs[(i + 5) % len(true_refs)][1])
            for i in range(10)
        ]
        false_scores = fitted_linker.score_pairs(false_pairs)
        assert true_scores.mean() > false_scores.mean()

    def test_sparsity_report(self, fitted_linker):
        report = fitted_linker.sparsity_report()
        assert 0.0 <= report["consistency_nonzero_fraction"] <= 1.0
        assert 0.0 < report["beta_support_fraction"] <= 1.0
        assert report["num_candidates"] >= report["num_labeled"]

    def test_unknown_platform_pair(self, fitted_linker):
        with pytest.raises(KeyError):
            fitted_linker.linkage("facebook", "nonexistent")

    def test_unfitted_raises(self):
        linker = HydraLinker()
        with pytest.raises(RuntimeError):
            linker.score_pairs([])


class TestHydraVariants:
    def test_zero_fill_variant(self, small_world, labeled_split):
        positives, negatives = labeled_split
        linker = HydraLinker(
            missing_strategy="zero", seed=17, num_topics=8, max_lda_docs=1500
        )
        linker.fit(small_world, positives, negatives)
        result = linker.linkage("facebook", "twitter")
        assert len(result.linked) > 0

    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            HydraLinker(missing_strategy="bogus")

    def test_conflicting_labels_rejected(self, small_world, labeled_split):
        positives, negatives = labeled_split
        linker = HydraLinker(seed=0, num_topics=8, max_lda_docs=500)
        with pytest.raises(ValueError):
            linker.fit(small_world, positives, [positives[0]])

    def test_no_labels_rejected(self, small_world):
        linker = HydraLinker(
            seed=0, num_topics=8, max_lda_docs=500, use_prematched=False
        )
        with pytest.raises(ValueError):
            linker.fit(small_world, [], [])


class TestGreedyOneToOne:
    def test_strongest_pair_claims_both_accounts(self):
        pairs = [("a0", "b0"), ("a0", "b1"), ("a1", "b1"), ("a1", "b0")]
        scores = np.array([0.5, 0.9, 0.8, 0.7])
        # a0-b1 wins; a1-b1 and a0-b0 lose an account to it; a1-b0 is free
        assert greedy_one_to_one(pairs, scores) == [1, 3]

    def test_ties_break_by_row_and_threshold_is_strict(self):
        pairs = [("a0", "b0"), ("a1", "b1"), ("a2", "b2"), ("a3", "b3")]
        scores = np.array([0.4, 0.7, 0.7, 0.0])
        assert greedy_one_to_one(pairs, scores) == [1, 2, 0]
        assert greedy_one_to_one(pairs, scores, threshold=0.4) == [1, 2]
        assert greedy_one_to_one(pairs, scores, threshold=-1.0) == [1, 2, 0, 3]

    def test_nan_never_links(self):
        pairs = [("a0", "b0"), ("a1", "b1")]
        assert greedy_one_to_one(pairs, np.array([np.nan, 0.2])) == [1]

    def test_refs_compare_whole(self):
        # same account id on different platforms are different accounts
        pairs = [(("x", "1"), ("y", "2")), (("z", "1"), ("y", "3"))]
        assert greedy_one_to_one(pairs, np.array([0.9, 0.8])) == [0, 1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            greedy_one_to_one([("a", "b")], np.zeros(2))

"""Section 6 label-collection quality claim.

Paper: "the labeled training pairs collected by our paradigm is much cleaner
(precision over 95 %) than the approach in [16] (precision around 75 %)
where the labeled training pairs are automatically generated based on the
uniqueness (n-gram probability) of user names."

We measure the precision of (a) HYDRA's rule-based pre-matched pairs and
(b) Alias-Disamb's self-labeled pairs against ground truth on the same world,
and assert the ordering plus the >95 % bar for the rule labels.
"""


from repro.baselines import AliasDisambBaseline
from repro.core import CandidateGenerator
from repro.eval.experiments import english_world


def _measure():
    world = english_world(45, seed=200)
    true = {
        (("facebook", a), ("twitter", b))
        for a, b in world.true_pairs("facebook", "twitter")
    }

    candidates = CandidateGenerator().generate(world, "facebook", "twitter")
    prematched = [candidates.pairs[i] for i in candidates.prematched]
    rule_precision = (
        sum(1 for p in prematched if p in true) / len(prematched)
        if prematched else 0.0
    )

    alias = AliasDisambBaseline()
    alias.fit(world, [], [], [("facebook", "twitter")],
              candidates={("facebook", "twitter"): candidates})
    self_labeled = [pair for pair, _ in alias.self_labeled_pairs()]
    alias_precision = (
        sum(1 for p in self_labeled if p in true) / len(self_labeled)
        if self_labeled else 0.0
    )
    return rule_precision, len(prematched), alias_precision, len(self_labeled)


def test_label_collection_quality(once, write_table):
    rule_precision, n_rule, alias_precision, n_alias = once(_measure)
    write_table(
        "label_quality",
        "Section 6 — auto-generated training-label precision",
        ["paradigm", "labels", "precision"],
        [
            ["HYDRA rule-based pre-matching", n_rule, rule_precision],
            ["Alias-Disamb username self-labels", n_alias, alias_precision],
        ],
    )
    assert n_rule > 0, "rule pre-matching produced no labels"
    assert rule_precision >= 0.95, "paper: rule labels are >95 % precise"
    assert rule_precision > alias_precision, (
        "rule labels must be cleaner than username self-labels"
    )

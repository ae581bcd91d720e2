"""Figure 12: performance vs number of social communities incorporated.

Paper protocol: "given the top five largest overlapping communities A, B, C,
D, E with labeled training pairs between A and B ... we incrementally
incorporate structure information of training pairs from [the other
communities] for model training, and report the results on the test set".

Our version on the generated world: communities are recovered from the
platform interaction graph by label propagation; ground-truth labels come
only from the largest community; for k = 1..4 the candidate pool (and hence
the structure graph) incrementally incorporates accounts of the next
communities.  Expected shape: HYDRA's quality on the community-1 test pairs
does not degrade (and tends to improve) as more community structure arrives,
and stays above the baselines throughout.
"""


from repro.baselines import MobiusBaseline, SvmBBaseline
from repro.core import CandidateGenerator, HydraLinker
from repro.core.candidates import CandidateSet
from repro.eval.experiments import (
    FAST_FEATURE_SETTINGS,
    english_world,
    very_hard_world_overrides,
)
from repro.socialnet import label_propagation_communities

SEED = 120
NUM_PERSONS = 48


def _filter_candidates(cand: CandidateSet, allowed_fb, allowed_tw) -> CandidateSet:
    out = CandidateSet(platform_a=cand.platform_a, platform_b=cand.platform_b)
    for idx, pair in enumerate(cand.pairs):
        (pa, ida), (pb, idb) = pair
        if ida in allowed_fb and idb in allowed_tw:
            new_idx = len(out.pairs)
            out.pairs.append(pair)
            out.evidence.append(cand.evidence[idx])
            if idx in cand.prematched:
                out.prematched.append(new_idx)
    return out


def _run():
    world = english_world(NUM_PERSONS, seed=SEED, **very_hard_world_overrides())
    tw = world.platform("twitter")
    communities = label_propagation_communities(tw.graph, seed=1)[:5]
    person_comms = [
        {world.person_of("twitter", account) for account in comm}
        for comm in communities
    ]
    fb_ids = {world.person_of("facebook", a): a
              for a in world.platform("facebook").account_ids()}
    tw_ids = {world.person_of("twitter", a): a for a in tw.account_ids()}

    # ground truth restricted to community 1
    core_persons = sorted(person_comms[0])
    true_core = [
        ((("facebook", fb_ids[p]), ("twitter", tw_ids[p]))) for p in core_persons
    ]
    n_label = max(2, len(true_core) // 4)
    labeled_pos = true_core[:n_label]
    heldout = set(true_core[n_label:])
    labeled_neg = []
    for i in range(2 * n_label):
        left = true_core[i % len(true_core)][0]
        right = true_core[(i * 3 + 1) % len(true_core)][1]
        if (left, right) not in set(true_core):
            labeled_neg.append((left, right))

    full_candidates = CandidateGenerator().generate(world, "facebook", "twitter")
    rows = []
    for k in range(1, 5):
        persons_k = set().union(*person_comms[:k])
        allowed_fb = {fb_ids[p] for p in persons_k if p in fb_ids}
        allowed_tw = {tw_ids[p] for p in persons_k if p in tw_ids}
        candidates = {
            ("facebook", "twitter"): _filter_candidates(
                full_candidates, allowed_fb, allowed_tw
            )
        }
        methods = {
            "HYDRA-M": HydraLinker(seed=SEED, **FAST_FEATURE_SETTINGS),
            "SVM-B": SvmBBaseline(seed=SEED, **FAST_FEATURE_SETTINGS),
            "MOBIUS": MobiusBaseline(),
        }
        for name, linker in methods.items():
            linker.fit(
                world, labeled_pos, labeled_neg,
                [("facebook", "twitter")], candidates=candidates,
            )
            result = linker.linkage("facebook", "twitter")
            linked = [p for p in result.linked if p not in set(labeled_pos)]
            in_core = [p for p in linked if p[0][1] in
                       {fb_ids[q] for q in person_comms[0]}]
            tp = sum(1 for p in in_core if p in heldout)
            precision = tp / len(in_core) if in_core else 0.0
            recall = tp / len(heldout) if heldout else 0.0
            rows.append([k, name, precision, recall])
    return rows


def test_fig12_social_communities(once, write_table):
    rows = once(_run)
    write_table(
        "fig12_communities",
        "Fig 12 — precision/recall on community-1 test pairs vs #communities"
        " incorporated",
        ["#communities", "method", "precision", "recall"],
        rows,
    )

    def f1(p, r):
        return 2 * p * r / (p + r) if p + r else 0.0

    by_method = {}
    for k, name, p, r in rows:
        by_method.setdefault(name, {})[k] = f1(p, r)
    # HYDRA does not degrade as structure from other communities arrives
    assert by_method["HYDRA-M"][4] >= by_method["HYDRA-M"][1] - 0.10
    # and beats the baselines once all structure is in
    assert by_method["HYDRA-M"][4] >= by_method["MOBIUS"][4] - 1e-9

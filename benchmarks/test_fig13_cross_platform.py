"""Figure 13: SIL across culturally different platforms (all 7 networks).

Paper: linking Chinese platforms against English platforms shows "an obvious
performance drop (affected by different writing styles in Chinese and
English, and social friends), but HYDRA performs even better than the
baseline methods".

We generate the 7-platform world and evaluate the culture-crossing pairs
(sina_weibo x twitter, renren x facebook).  Expected shape: every method is
below its same-culture Fig 9 level, and HYDRA-M still leads.
"""


from repro.eval.experiments import (
    HARD_WORLD_OVERRIDES,
    cross_cultural_pairs,
    cross_cultural_world,
    default_method_factories,
    run_method_comparison,
)

METHODS = ("HYDRA-M", "SVM-B", "MOBIUS", "Alias-Disamb", "SMaSh")


def _run():
    # cross-cultural platform pairs diverge harder: raise the divergence of
    # every platform via the hard preset plus extra username unreliability
    overrides = dict(HARD_WORLD_OVERRIDES)
    overrides["username_overlap_probability"] = 0.4
    world = cross_cultural_world(18, seed=130, **overrides)
    results = run_method_comparison(
        world,
        platform_pairs=cross_cultural_pairs(),
        seed=130,
        methods=default_method_factories(seed=130, include=METHODS),
    )
    return [
        [r.method, r.metrics.precision, r.metrics.recall, r.metrics.f1,
         r.seconds]
        for r in results
    ]


def test_fig13_cross_cultural(once, write_table):
    rows = once(_run)
    write_table(
        "fig13_cross_platform",
        "Fig 13 — SIL across Chinese x English platforms (7-network world)",
        ["method", "precision", "recall", "f1", "seconds"],
        rows,
    )
    scores = {r[0]: r[3] for r in rows}
    for method, f1 in scores.items():
        if method != "HYDRA-M":
            assert scores["HYDRA-M"] >= f1 - 1e-9, f"HYDRA-M lost to {method}"

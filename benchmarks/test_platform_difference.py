"""Section 1.1 data claims: platform difference and data imbalance.

Paper: "Our study on 5 million users from five most popular Chinese social
platforms and 5 million users from two most popular English social platforms
reveals a 25 % to 85 % difference in user generated content between different
platforms", and "There has been observed a huge imbalance in terms of data
volume between a user's primary social account and the rest."

These are properties of the *data*, so this bench validates the generator:
the measured per-person cross-platform content divergence must land in the
paper's band, and volume imbalance must be material.
"""

import numpy as np

from repro.datagen import divergence_summary, volume_imbalance
from repro.eval.experiments import chinese_world, english_world


def _measure():
    rows = []
    world_en = english_world(40, seed=190)
    summary_en = divergence_summary(world_en, "twitter", "facebook")
    rows.append(["english", "twitter/facebook", summary_en["min"],
                 summary_en["median"], summary_en["max"]])
    world_zh = chinese_world(25, seed=191)
    summary_zh = divergence_summary(world_zh, "sina_weibo", "douban")
    rows.append(["chinese", "sina_weibo/douban", summary_zh["min"],
                 summary_zh["median"], summary_zh["max"]])

    imbalances = [
        volume_imbalance(world_zh, person_id) for person_id in range(25)
    ]
    imbalances = [v for v in imbalances if v is not None and np.isfinite(v)]
    return rows, summary_en, summary_zh, imbalances


def test_platform_difference_claim(once, write_table):
    rows, summary_en, summary_zh, imbalances = once(_measure)
    rows.append(["chinese", "volume imbalance (max/median)",
                 float(np.min(imbalances)), float(np.median(imbalances)),
                 float(np.max(imbalances))])
    write_table(
        "platform_difference",
        "Section 1.1 — cross-platform content difference and volume imbalance",
        ["dataset", "measure", "min", "median", "max"],
        rows,
    )
    # the paper's measured band: 25 % to 85 % content difference
    assert 0.15 <= summary_en["median"] <= 0.90
    assert 0.15 <= summary_zh["median"] <= 0.90
    # douban is the highest-divergence Chinese platform in our presets
    assert summary_zh["median"] >= summary_en["median"] - 0.05
    # data imbalance: the primary account dominates for the median person
    assert float(np.median(imbalances)) >= 1.3

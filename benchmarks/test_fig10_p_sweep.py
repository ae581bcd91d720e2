"""Figure 10: precision and recall as the utility exponent p varies 1..10.

Paper: "both precision and recall reach optimum with an appropriate setting
of p (p = 6 and p = 5 for best precision and recall, respectively)" —
i.e. performance is not monotone in p: moderate exponents balance the
objectives, extreme ones over-fit the dominant objective.
"""

import numpy as np

from repro.core.moo import MooConfig
from repro.eval import PreparedExperiment
from repro.eval.experiments import english_world, very_hard_world_overrides

PS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0)


def _sweep():
    world = english_world(35, seed=10, **very_hard_world_overrides())
    prepared = PreparedExperiment(world, seed=10, label_fraction=0.10)
    rows = []
    for p in PS:
        result = prepared.evaluate_config(
            MooConfig(gamma_l=0.01, gamma_m=10.0, p=p)
        )
        rows.append([p, result.metrics.precision, result.metrics.recall,
                     result.metrics.f1])
    return rows


def test_fig10_p_sweep(once, write_table):
    rows = once(_sweep)
    write_table(
        "fig10_p_sweep",
        "Fig 10 — precision/recall vs utility exponent p (10% labels)",
        ["p", "precision", "recall", "f1"],
        rows,
    )
    precision = np.array([r[1] for r in rows])
    f1 = np.array([r[3] for r in rows])
    # paper shape: optimum at a moderate p (they found p = 5-6), with
    # degradation once p over-emphasizes the dominant objective
    interior = f1[1:-1].max()
    assert interior >= f1[0] - 1e-9, "moderate p should not lose to p = 1"
    assert interior >= f1[-1], "moderate p must beat p = 10"
    assert f1.max() - f1.min() > 0.02, "p must visibly matter"
    assert precision[np.argmax(f1)] > 0.5

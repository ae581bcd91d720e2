"""Greedy one-to-one resolution of scored candidate pairs.

The SIL mapping is injective by definition: an account is the same natural
person as at most one account on the other platform.  HYDRA, the baselines,
the parameter sweeps and the precision-recall curves all resolve their
scored candidates the same way — strongest pair first, skip any pair whose
account already joined a stronger one — and they share this function.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["greedy_one_to_one"]


def greedy_one_to_one(
    pairs: Sequence[tuple], scores, threshold: float = 0.0
) -> list[int]:
    """Rows of ``pairs`` linked by greedy one-to-one matching.

    Only rows whose score is ``> threshold`` compete (NaN never does).  They
    are visited in (-score, row) order, and a row is kept when neither of
    its two refs was kept before; the kept rows come back in visiting
    order.  Refs are compared whole, so ``pairs`` may hold account refs or
    any other hashable identifiers.
    """
    scores = np.asarray(scores, dtype=float)
    if len(pairs) != scores.shape[0]:
        raise ValueError("pairs and scores must have equal length")
    rows = np.flatnonzero(scores > threshold)
    order = rows[np.lexsort((rows, -scores[rows]))]
    used_a: set = set()
    used_b: set = set()
    linked: list[int] = []
    for row in order.tolist():
        ref_a, ref_b = pairs[row]
        if ref_a in used_a or ref_b in used_b:
            continue
        used_a.add(ref_a)
        used_b.add(ref_b)
        linked.append(row)
    return linked

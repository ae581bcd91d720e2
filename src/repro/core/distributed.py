"""Distributed optimization by consensus ADMM (Section 6.3 / 7.5, reference [3]).

"Due to the extremely large data size, we adopt the distributed convex
optimization method [3] to optimize the objective function distributively on
several servers in parallel with a carefully designed model synchronization
strategy ... the overall objective function can be optimized towards the
optimal solution via optimizing a series of sub-problems on different parts
of the data stored distributively across different servers."

We reproduce that decomposition in-process: the candidate rows (and the
block-diagonal restriction of the structure Laplacian) are sharded across
simulated workers; each worker minimizes its local hinge + structure
objective plus the ADMM proximal term; the consensus variable ``z`` absorbs
the global L2 penalty.  The model is the *linear* (primal) HYDRA variant —
the form that decomposes by rows — and its solution is directly comparable to
the centralized linear model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.consistency import ConsistencyBlock

__all__ = ["DistributedLinearHydra"]


@dataclass
class _Shard:
    """One worker's data slice."""

    x: np.ndarray  # all candidate rows of this shard (with bias column)
    labeled_rows: np.ndarray  # indices into x of labeled rows
    y: np.ndarray  # labels for the labeled rows
    theta: np.ndarray  # local block-diagonal structure Laplacian


class DistributedLinearHydra:
    """Consensus-ADMM trainer for the linear HYDRA objective.

    The objective split across ``num_workers`` shards is

        sum_s [ hinge_s(w_s) + gamma_m/n^2 (X_s w_s)^T Theta_s (X_s w_s) ]
        + gamma_l/2 ||z||^2     s.t.  w_s = z for all s.

    Parameters
    ----------
    num_workers:
        Simulated server count (the paper used 5 physical servers).
    rho:
        ADMM penalty parameter.
    admm_iterations:
        Consensus synchronization rounds.
    local_iterations:
        Gradient steps per worker per round.
    """

    def __init__(
        self,
        *,
        gamma_l: float = 1.0,
        gamma_m: float = 1.0,
        num_workers: int = 5,
        rho: float = 1.0,
        admm_iterations: int = 25,
        local_iterations: int = 40,
        learning_rate: float = 0.1,
    ):
        if gamma_l <= 0:
            raise ValueError(f"gamma_l must be > 0, got {gamma_l}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if rho <= 0:
            raise ValueError(f"rho must be > 0, got {rho}")
        self.gamma_l = gamma_l
        self.gamma_m = gamma_m
        self.num_workers = num_workers
        self.rho = rho
        self.admm_iterations = admm_iterations
        self.local_iterations = local_iterations
        self.learning_rate = learning_rate
        self.w_: np.ndarray | None = None
        self.consensus_gap_: float = float("inf")

    # ------------------------------------------------------------------
    def _make_shards(
        self,
        x_all: np.ndarray,
        y: np.ndarray,
        num_labeled: int,
        blocks: list[ConsistencyBlock],
    ) -> list[_Shard]:
        """Shard rows contiguously; structure blocks restrict to within-shard.

        Each shard's ``theta`` is assembled directly from the blocks' own
        restrictions: per block, only the rows whose global index falls in
        the shard contribute, sliced out of the block's CSR and scattered at
        their shard-local offsets, so neither the global Laplacian nor any
        block's dense one is materialized - only the shard-sized ``theta``.
        """
        n = x_all.shape[0]
        boundaries = np.linspace(0, n, self.num_workers + 1, dtype=int)
        shards: list[_Shard] = []
        for s in range(self.num_workers):
            lo, hi = boundaries[s], boundaries[s + 1]
            if hi <= lo:
                continue
            rows = np.arange(lo, hi)
            labeled_rows = rows[rows < num_labeled] - lo
            theta = np.zeros((hi - lo, hi - lo))
            for block in blocks:
                inside = np.nonzero((block.indices >= lo) & (block.indices < hi))[0]
                if inside.size:
                    local = block.indices[inside] - lo
                    theta[np.ix_(local, local)] += (
                        block.weight * block.laplacian_restricted(inside)
                    )
            shards.append(
                _Shard(
                    x=x_all[lo:hi],
                    labeled_rows=labeled_rows,
                    y=y[rows[rows < num_labeled]],
                    theta=theta,
                )
            )
        return shards

    def _local_solve(
        self, shard: _Shard, z: np.ndarray, u: np.ndarray, n_total: int
    ) -> np.ndarray:
        """Worker update: minimize local objective + (rho/2)||w - z + u||^2."""
        w = z - u
        structure_scale = 2.0 * self.gamma_m / float(n_total * n_total)
        # precompute X^T Theta X for the quadratic structure term
        xtx = shard.x.T @ shard.theta @ shard.x
        x_lab = shard.x[shard.labeled_rows]
        for t in range(1, self.local_iterations + 1):
            grad = structure_scale * (xtx @ w) + self.rho * (w - z + u)
            if x_lab.shape[0]:
                margins = shard.y * (x_lab @ w)
                active = margins < 1.0
                if active.any():
                    grad -= (shard.y[active, None] * x_lab[active]).sum(axis=0) / max(
                        x_lab.shape[0], 1
                    )
            w = w - (self.learning_rate / (1.0 + 0.1 * t)) * grad
        return w

    # ------------------------------------------------------------------
    def fit(
        self,
        x_labeled: np.ndarray,
        y: np.ndarray,
        x_unlabeled: np.ndarray,
        blocks: list[ConsistencyBlock] | None = None,
    ) -> "DistributedLinearHydra":
        """Train with the same data layout as the centralized learner."""
        x_labeled = np.asarray(x_labeled, dtype=float)
        y = np.asarray(y, dtype=float)
        x_unlabeled = np.asarray(x_unlabeled, dtype=float)
        if x_unlabeled.size == 0:
            x_unlabeled = x_unlabeled.reshape(0, x_labeled.shape[1])
        if np.isnan(x_labeled).any() or np.isnan(x_unlabeled).any():
            raise ValueError("features contain NaN; resolve missing values first")
        blocks = blocks or []
        num_labeled = x_labeled.shape[0]
        x_all = np.vstack([x_labeled, x_unlabeled])
        # bias column: learned jointly, lightly regularized with the rest
        x_all = np.hstack([x_all, np.ones((x_all.shape[0], 1))])
        n, d = x_all.shape

        shards = self._make_shards(x_all, y, num_labeled, blocks)
        z = np.zeros(d)
        ws = [np.zeros(d) for _ in shards]
        us = [np.zeros(d) for _ in shards]
        for _ in range(self.admm_iterations):
            ws = [
                self._local_solve(shard, z, u, n)
                for shard, u in zip(shards, us)
            ]
            # z-update: prox of (gamma_l/2)||z||^2 at the average of (w_s + u_s)
            stacked = np.mean([w + u for w, u in zip(ws, us)], axis=0)
            z = (self.rho * len(shards) * stacked) / (
                self.gamma_l + self.rho * len(shards)
            )
            us = [u + w - z for u, w in zip(us, ws)]
        self.w_ = z
        self.consensus_gap_ = float(
            np.max([np.linalg.norm(w - z) for w in ws]) if ws else 0.0
        )
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Signed decision values for feature rows (bias included)."""
        if self.w_ is None:
            raise RuntimeError("model is not fitted; call fit() first")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        x = np.hstack([x, np.ones((x.shape[0], 1))])
        return x @ self.w_

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Binary linkage decision in {-1, +1}."""
        return np.where(self.decision_function(x) >= 0.0, 1.0, -1.0)

"""Multi-objective model learning (Section 6.3, Eqns 10-17).

The SIL problem is cast as the vector minimization

    min_w F(w) = [F_D(w), F_S^{cc'}(w), ...]

aggregated by the weighted exponential-sum utility ``U = sum_k w_k F_k^p``
(Eqn 11), whose minimizers are Pareto-optimal (Proposition 1).  In the dual
(Representer theorem, Eqn 12) the solution is

    alpha = (2 gamma_L I + 2 gamma_M / n^2 (D - M) K)^{-1} J^T Y beta*   (Eqn 15)

with beta* solving the box QP of Eqn 16 with

    Q = Y J K (2 gamma_L I + 2 gamma_M / n^2 (D - M) K)^{-1} J^T Y.     (Eqn 17)

``p = 1`` recovers Laplacian-regularized semi-supervised learning (manifold
regularization [2]); for ``p > 1`` the utility's gradient is that of a p = 1
problem with effective weights ``w_k p F_k^{p-1}``, so we solve by sequential
convex reweighting: solve at the current weights, re-evaluate the objective
values, update the weights, repeat.  Each inner problem is the convex QP
above; larger p concentrates preference on the currently-dominant objective
exactly as the paper's model analysis (Section 6.4) describes.

Cost.  With ``Theta = sum_k w_k P_k^T (D_k - M_k) P_k`` (``P_k`` selects block
``k``'s rows) the system matrix of Eqn 15 is

    A = (2 gamma_L + jitter) I + (2 gamma_M / n^2) Theta K.

``Theta`` is never formed: each block adds its rows of ``Theta K`` straight
into ``A`` from its CSR (:meth:`ConsistencyBlock.add_laplacian_product`), the
normalization traces and the ``F_S`` values are sparse contractions, and
Eqn 17 multiplies only the labeled rows ``K[:Nl]``.  The fit holds three
``n x n`` float64 arrays at its peak - ``K``, ``A`` and LAPACK's working
copy of ``A`` - and its one cubic step is that LU solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.consistency import ConsistencyBlock
from repro.core.kernels import make_kernel
from repro.core.qp import QPResult, solve_box_qp

__all__ = ["MooConfig", "MultiObjectiveModel"]

#: Elements of the work band :func:`_symmetrize` reuses (2 MB of float64).
_BAND_ELEMENTS = 1 << 18


def _symmetrize(matrix: np.ndarray) -> None:
    """``matrix <- (matrix + matrix.T) / 2`` in place, a row band at a time."""
    n = matrix.shape[0]
    step = max(1, _BAND_ELEMENTS // max(n, 1))
    work = np.empty((step, n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        band = work[: hi - lo, : n - lo]
        np.add(matrix[lo:hi, lo:], matrix[lo:, lo:hi].T, out=band)
        band *= 0.5
        matrix[lo:hi, lo:] = band
        matrix[lo:, lo:hi] = band.T


@dataclass
class MooConfig:
    """Hyper-parameters of the multi-objective learner.

    ``gamma_l`` and ``gamma_m`` are the paper's preference weights on the
    supervised loss and the structure consistency objectives; ``p`` is the
    utility exponent (Fig 10 sweeps it 1..10).
    """

    gamma_l: float = 1.0
    gamma_m: float = 1.0
    p: float = 1.0
    kernel: str = "rbf"
    kernel_params: dict = field(default_factory=lambda: {"gamma": 0.5})
    max_smo_iterations: int = 20000
    smo_tol: float = 1e-6
    reweight_iterations: int = 4
    jitter: float = 1e-8

    def __post_init__(self) -> None:
        if self.gamma_l <= 0:
            raise ValueError(f"gamma_l must be > 0, got {self.gamma_l}")
        if self.gamma_m < 0:
            raise ValueError(f"gamma_m must be >= 0, got {self.gamma_m}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")


class MultiObjectiveModel:
    """Kernelized semi-supervised linkage model trained per Algorithm 1.

    Train with :meth:`fit`; score unseen similarity vectors with
    :meth:`decision_function` (``> 0`` predicts "same person").

    Attributes (populated by fit)
    -----------------------------
    alpha_:
        Dual expansion coefficients over all (labeled + unlabeled) pairs.
    beta_:
        QP solution on the labeled pairs.
    bias_:
        Decision bias ``b`` recovered from the KKT conditions.
    objective_values_:
        Final ``[F_D, F_S per block]`` values.
    qp_result_:
        The last inner :class:`~repro.core.qp.QPResult` (support sparsity).
    """

    def __init__(self, config: MooConfig | None = None):
        self.config = config if config is not None else MooConfig()
        self._kernel = make_kernel(self.config.kernel, **self.config.kernel_params)
        self.x_train_: np.ndarray | None = None
        self.alpha_: np.ndarray | None = None
        self.beta_: np.ndarray | None = None
        self.bias_: float = 0.0
        self.objective_values_: list[float] = []
        self.qp_result_: QPResult | None = None

    # ------------------------------------------------------------------
    def _system_matrix(
        self, gram: np.ndarray, blocks: list[ConsistencyBlock], weights: np.ndarray
    ) -> np.ndarray:
        """``A`` of Eqn 15 for the given objective weights (see module doc)."""
        cfg = self.config
        n = gram.shape[0]
        a_matrix = np.zeros_like(gram)
        for block, weight in zip(blocks, weights):
            block.add_laplacian_product(
                gram, a_matrix, 2.0 * cfg.gamma_m / float(n * n) * weight
            )
        a_matrix[np.diag_indices_from(a_matrix)] += 2.0 * cfg.gamma_l + cfg.jitter
        return a_matrix

    def fit(
        self,
        x_labeled: np.ndarray,
        y: np.ndarray,
        x_unlabeled: np.ndarray,
        blocks: list[ConsistencyBlock] | None = None,
    ) -> "MultiObjectiveModel":
        """Train on labeled pairs + unlabeled candidates + consistency blocks.

        Row layout: the global candidate array is ``[x_labeled; x_unlabeled]``
        and every block's ``indices`` must refer to that layout ("the first
        Nl pairs are labeled", Eqn 13).
        """
        x_labeled = np.asarray(x_labeled, dtype=float)
        y = np.asarray(y, dtype=float)
        x_unlabeled = np.asarray(x_unlabeled, dtype=float)
        if x_unlabeled.size == 0:
            x_unlabeled = x_unlabeled.reshape(0, x_labeled.shape[1])
        num_labeled = x_labeled.shape[0]
        if num_labeled == 0:
            raise ValueError("at least one labeled pair is required")
        if y.shape != (num_labeled,):
            raise ValueError("y length must match x_labeled rows")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be in {-1, +1}")
        if np.unique(y).size < 2:
            raise ValueError("both classes must be present in the labels")
        blocks = blocks or []

        x_all = np.vstack([x_labeled, x_unlabeled])
        if np.isnan(x_all).any():
            raise ValueError("features contain NaN; resolve missing values first")
        n = x_all.shape[0]
        for block in blocks:
            if block.indices.size and (
                block.indices.min() < 0 or block.indices.max() >= n
            ):
                raise ValueError("block indices exceed the candidate array")

        cfg = self.config
        gram = self._kernel(x_all, x_all)
        _symmetrize(gram)
        jt_y = np.zeros((n, num_labeled))
        jt_y[:num_labeled, :] = np.diag(y)
        box_c = 1.0 / num_labeled

        weights = np.array([block.weight for block in blocks], dtype=float)
        effective = weights.copy()
        outer_iterations = 1 if cfg.p == 1 or not blocks else cfg.reweight_iterations

        # Data-derived normalization scales so the objectives are comparable
        # inside the p-reweighting (the standard objective normalization of
        # multi-objective optimization [19]):  F_D at w = 0 equals Nl (every
        # labeled pair at full hinge); each F_S is scaled by the trace of its
        # quadratic form, the value of an identity-coefficient solution.
        f_d_scale = float(num_labeled)
        f_s_scales = [
            max(block.laplacian_trace(gram) / float(n * n), 1e-12) for block in blocks
        ]

        alpha = np.zeros(n)
        beta = np.zeros(num_labeled)
        bias = 0.0
        f_values: list[float] = []
        for _ in range(outer_iterations):
            # A^{-1} J^T Y, (n, Nl); A is dropped as soon as it is factored
            b_matrix = np.linalg.solve(
                self._system_matrix(gram, blocks, effective), jt_y
            )
            q = y[:, None] * (gram[:num_labeled] @ b_matrix)
            q = 0.5 * (q + q.T)
            q[np.diag_indices_from(q)] += cfg.jitter
            self.qp_result_ = solve_box_qp(
                q, y, box_c,
                max_iterations=cfg.max_smo_iterations,
                tol=cfg.smo_tol,
            )
            beta = self.qp_result_.beta
            alpha = b_matrix @ beta
            f_all = gram @ alpha
            bias = self._bias_from_kkt(f_all[:num_labeled], y, beta, box_c)

            # objective values for reporting and for p > 1 reweighting
            w_norm_sq = float(alpha @ f_all)
            margins = y * (f_all[:num_labeled] + bias)
            hinge = float(np.maximum(0.0, 1.0 - margins).sum())
            f_d = 0.5 * cfg.gamma_l * w_norm_sq + hinge
            f_values = [f_d]
            for block in blocks:
                f_values.append(
                    block.laplacian_quadratic(f_all[block.indices]) / float(n * n)
                )
            if cfg.p > 1 and blocks:
                # Effective weight of objective k in the linearized problem is
                # proportional to w_k * p * F_k^{p-1} on the *normalized*
                # objectives; the ratio is divided by F_D's factor so gamma_l
                # keeps its meaning.  Larger p concentrates preference on the
                # currently-dominant (normalized) objective, the Section 6.4
                # behavior.  Updates are geometrically damped and clamped to
                # two decades around the preference weights so the sequential
                # convex iteration converges instead of oscillating.
                fd_norm = max(f_values[0] / f_d_scale, 1e-12)
                proposed = np.array(
                    [
                        w * (max(fs / scale, 1e-12) / fd_norm) ** (cfg.p - 1.0)
                        for w, fs, scale in zip(weights, f_values[1:], f_s_scales)
                    ]
                )
                damped = np.sqrt(np.maximum(effective, 1e-12) * proposed)
                effective = np.clip(damped, weights * 1e-2, weights * 1e2)

        self.x_train_ = x_all
        self.alpha_ = alpha
        self.beta_ = beta
        self.bias_ = bias
        self.objective_values_ = f_values
        return self

    @staticmethod
    def _bias_from_kkt(
        f_labeled: np.ndarray, y: np.ndarray, beta: np.ndarray, box_c: float
    ) -> float:
        """Recover b: free support vectors satisfy ``y_i (f_i + b) = 1``."""
        free = (beta > 1e-8) & (beta < box_c - 1e-8)
        if free.any():
            return float(np.mean(y[free] - f_labeled[free]))
        support = beta > 1e-8
        if support.any():
            return float(np.mean(y[support] - f_labeled[support]))
        return float(np.mean(y - f_labeled))

    # ------------------------------------------------------------------
    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Eqn 12: ``f(x_t) = sum alpha_ii' K(x_ii', x_t) + b``."""
        if self.alpha_ is None or self.x_train_ is None:
            raise RuntimeError("model is not fitted; call fit() first")
        gram = self._kernel(np.atleast_2d(np.asarray(x, dtype=float)), self.x_train_)
        return gram @ self.alpha_ + self.bias_

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Binary linkage decision in {-1, +1}."""
        return np.where(self.decision_function(x) >= 0.0, 1.0, -1.0)

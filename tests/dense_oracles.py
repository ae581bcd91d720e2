"""Dense reference implementations the sparse code is tested against.

These are the pre-CSR bodies of ``StructureConsistencyBuilder.build`` (the
per-row triple loop that writes into an ``n x n`` array) and of
``MultiObjectiveModel.fit`` (global Laplacian scatter, dense ``theta @ gram``,
dense trace).  They are the only place the dense path still exists; the
library's sparse code must reproduce them to rounding.
"""

from __future__ import annotations

import numpy as np

from repro.core.moo import MultiObjectiveModel
from repro.core.qp import solve_box_qp


def dense_consistency(builder, world, pairs, behavior):
    """``(m, d)`` as dense ``n x n`` arrays, built entry by entry."""
    platform_a = pairs[0][0][0]
    platform_b = pairs[0][1][0]
    n = len(pairs)
    graph_a = world.platforms[platform_a].graph
    graph_b = world.platforms[platform_b].graph

    dist_sq = np.empty(n)
    for row, (ref_a, ref_b) in enumerate(pairs):
        va = np.nan_to_num(behavior[ref_a], nan=0.0)
        vb = np.nan_to_num(behavior[ref_b], nan=0.0)
        dist_sq[row] = float(((va - vb) ** 2).sum())
    sigma1 = builder.sigma1
    if sigma1 is None:
        positive = dist_sq[dist_sq > 0]
        sigma1 = (
            builder.sigma1_scale * float(np.sqrt(np.median(positive)))
            if positive.size
            else 1.0
        )
    sigma1_sq = sigma1 * sigma1

    m = np.zeros((n, n))
    np.fill_diagonal(m, np.exp(-dist_sq / sigma1_sq))

    accounts_a = sorted({ref_a[1] for ref_a, _ in pairs})
    accounts_b = sorted({ref_b[1] for _, ref_b in pairs})
    hops_a = {
        acc: graph_a.hop_counts_from(acc, max_hops=builder.max_hops)
        for acc in accounts_a
    }
    hops_b = {
        acc: graph_b.hop_counts_from(acc, max_hops=builder.max_hops)
        for acc in accounts_b
    }
    rows_by_a: dict[str, list[int]] = {}
    for row, (ref_a, _) in enumerate(pairs):
        rows_by_a.setdefault(ref_a[1], []).append(row)

    sigma2_sq = builder.sigma2 * builder.sigma2
    for row_a, (ref_i, ref_ip) in enumerate(pairs):
        reach_i = hops_a[ref_i[1]]
        reach_ip = hops_b[ref_ip[1]]
        for acc_j, rows in rows_by_a.items():
            if acc_j == ref_i[1] or acc_j not in reach_i:
                continue
            k_ij = reach_i[acc_j] - 1  # intermediate users
            d_ij = float((k_ij + 1) ** 2)
            for row_b in rows:
                if row_b <= row_a:
                    continue
                ref_jp = pairs[row_b][1]
                if ref_jp[1] == ref_ip[1] or ref_jp[1] not in reach_ip:
                    continue
                k_ipjp = reach_ip[ref_jp[1]] - 1
                d_ipjp = float((k_ipjp + 1) ** 2)
                structural = 1.0 - (d_ij - d_ipjp) ** 2 / sigma2_sq
                if structural <= 0.0:
                    continue
                behavioral = np.exp(
                    -(dist_sq[row_a] + dist_sq[row_b]) / (2.0 * sigma1_sq)
                )
                value = behavioral * structural
                m[row_a, row_b] = value
                m[row_b, row_a] = value

    return m, np.diag(m.sum(axis=1))


def dense_fit(config, x_labeled, y, x_unlabeled, blocks):
    """Eqns 15-17 with every ``n x n`` intermediate dense.

    Returns ``(alpha, beta, bias, objective_values)``.
    """
    model = MultiObjectiveModel(config)
    x_labeled = np.asarray(x_labeled, dtype=float)
    y = np.asarray(y, dtype=float)
    x_unlabeled = np.asarray(x_unlabeled, dtype=float)
    if x_unlabeled.size == 0:
        x_unlabeled = x_unlabeled.reshape(0, x_labeled.shape[1])
    num_labeled = x_labeled.shape[0]
    x_all = np.vstack([x_labeled, x_unlabeled])
    n = x_all.shape[0]
    laplacians = [block.laplacian for block in blocks]

    cfg = config
    gram = model._kernel(x_all, x_all)
    gram = 0.5 * (gram + gram.T)
    jt_y = np.zeros((n, num_labeled))
    jt_y[:num_labeled, :] = np.diag(y)
    box_c = 1.0 / num_labeled

    weights = np.array([block.weight for block in blocks], dtype=float)
    effective = weights.copy()
    outer_iterations = 1 if cfg.p == 1 or not blocks else cfg.reweight_iterations

    f_d_scale = float(num_labeled)
    f_s_scales = []
    for block, laplacian in zip(blocks, laplacians):
        idx = block.indices
        k_block = gram[np.ix_(idx, idx)]
        f_s_scales.append(
            max(float(np.trace(laplacian @ k_block)) / float(n * n), 1e-12)
        )

    alpha = np.zeros(n)
    beta = np.zeros(num_labeled)
    bias = 0.0
    f_values: list[float] = []
    for _ in range(outer_iterations):
        theta = np.zeros((n, n))
        for block, laplacian, weight in zip(blocks, laplacians, effective):
            idx = block.indices
            theta[np.ix_(idx, idx)] += weight * laplacian
        a_matrix = (
            2.0 * cfg.gamma_l * np.eye(n)
            + (2.0 * cfg.gamma_m / float(n * n)) * theta @ gram
        )
        a_matrix[np.diag_indices_from(a_matrix)] += cfg.jitter
        b_matrix = np.linalg.solve(a_matrix, jt_y)
        q = np.diag(y) @ (gram @ b_matrix)[:num_labeled, :]
        q = 0.5 * (q + q.T)
        q[np.diag_indices_from(q)] += cfg.jitter
        qp_result = solve_box_qp(
            q, y, box_c,
            max_iterations=cfg.max_smo_iterations,
            tol=cfg.smo_tol,
        )
        beta = qp_result.beta
        alpha = b_matrix @ beta
        f_all = gram @ alpha
        bias = model._bias_from_kkt(f_all[:num_labeled], y, beta, box_c)

        w_norm_sq = float(alpha @ gram @ alpha)
        margins = y * (f_all[:num_labeled] + bias)
        hinge = float(np.maximum(0.0, 1.0 - margins).sum())
        f_d = 0.5 * cfg.gamma_l * w_norm_sq + hinge
        f_values = [f_d]
        for block, laplacian in zip(blocks, laplacians):
            fb = f_all[block.indices]
            f_values.append(float(fb @ laplacian @ fb) / float(n * n))
        if cfg.p > 1 and blocks:
            fd_norm = max(f_values[0] / f_d_scale, 1e-12)
            proposed = np.array(
                [
                    w * (max(fs / scale, 1e-12) / fd_norm) ** (cfg.p - 1.0)
                    for w, fs, scale in zip(weights, f_values[1:], f_s_scales)
                ]
            )
            damped = np.sqrt(np.maximum(effective, 1e-12) * proposed)
            effective = np.clip(damped, weights * 1e-2, weights * 1e2)

    return alpha, beta, bias, f_values

"""Structure consistency graph construction (Section 6.2, Eqns 8-9, 14).

For candidate pairs ``a = (i, i')`` and ``b = (j, j')`` between platforms S
and S', the consistency matrix M stores:

* ``M(a, a) = exp(-||x_i - x_i'||^2 / sigma_1^2)`` — individual-level
  cross-platform behavior affinity on per-user behavior representations;
* ``M(a, b)`` (Eqn 9) — the pairwise behavior factor times the *structural
  agreement* ``1 - (d_ij - d_i'j')^2 / sigma_2^2``, where ``d_ij = (k_ij+1)^2``
  is the squared intermediate-hop closeness on the platform's social graph.
  Entries where either distance is unavailable (too far / disconnected) or
  where the structural disagreement is "too large" are zero, keeping M sparse
  (the paper reports < 1 % non-zeros).

``D`` is the diagonal degree matrix ``D(a,a) = sum_b M(a,b)``, and the
graph-Laplacian-style matrix ``Theta = D - M`` is PSD, giving the convex
structure objective ``F_S(w) = w^T X^T (D - M) X w`` (Eqn 8).

Storage.  The paper's scalability argument (Section 7.5) is that M is sparse,
so M is never held dense: a :class:`ConsistencyBlock` keeps the off-diagonal
of M as CSR (``indptr`` / ``cols`` / ``values``) next to the two diagonals
``affinity = diag(M)`` and ``degree = diag(D)``, the builder emits those
arrays directly from the platforms' hop tables, and every consumer - the
learner, the ADMM shards, the artifact - works on them in time and memory
proportional to the stored entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.socialnet.graph import SocialGraph
from repro.socialnet.platform import SocialWorld

__all__ = ["ConsistencyBlock", "StructureConsistencyBuilder"]

AccountRef = tuple[str, str]

#: Elements per work buffer of the chunked sparse product (2 MB of float64)
#: and row pairs per step of the builder's join: both bound every
#: intermediate without making the chunk loops long.
_PRODUCT_CHUNK = 1 << 18
_JOIN_CHUNK = 1 << 16


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``starts[k] + arange(counts[k])``; also return each ``k``."""
    owner = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts
    return owner, starts[owner] + np.arange(owner.size) - first[owner]


@dataclass
class ConsistencyBlock:
    """One platform-pair block of the cross-platform consistency structure.

    The block is sparse by construction.  With ``n = len(indices)`` rows:

    * ``indices`` maps the block's rows into the global candidate-pair array
      that the multi-objective learner trains on (unique);
    * ``indptr`` / ``cols`` / ``values`` are the CSR of the **off-diagonal**
      of M: row ``r`` holds ``values[indptr[r]:indptr[r + 1]]`` at the
      strictly increasing columns ``cols[indptr[r]:indptr[r + 1]]``, the
      pattern is symmetric and no zero is stored;
    * ``affinity`` is ``diag(M)`` and ``degree`` is ``diag(D)``, the row sums
      of M including the diagonal;
    * ``weight`` is this objective's preference weight in the utility.

    Everything the learner needs from ``Theta = D - M`` - products, traces,
    quadratic forms, restrictions - is computed from these arrays in time
    proportional to the stored entries.  The dense ``m`` / ``d`` /
    ``laplacian`` are derived on demand for tests and the spectral baseline.
    """

    platform_a: str
    platform_b: str
    indices: np.ndarray
    indptr: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    affinity: np.ndarray
    degree: np.ndarray
    weight: float = 1.0

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        self.affinity = np.asarray(self.affinity, dtype=float)
        self.degree = np.asarray(self.degree, dtype=float)
        n = self.indices.size
        if self.indices.ndim != 1 or np.unique(self.indices).size != n:
            raise ValueError("block indices must be a 1-D array of unique rows")
        for name, array, length in (
            ("affinity", self.affinity, n),
            ("degree", self.degree, n),
            ("indptr", self.indptr, n + 1),
        ):
            if array.shape != (length,):
                raise ValueError(
                    f"{name} must have shape ({length},) for {n} indices, "
                    f"got {array.shape}"
                )
        nnz = self.cols.size
        if (
            self.cols.shape != self.values.shape
            or self.cols.ndim != 1
            or self.indptr[0] != 0
            or self.indptr[-1] != nnz
            or (np.diff(self.indptr) < 0).any()
        ):
            raise ValueError("indptr / cols / values do not form a CSR matrix")
        if nnz:
            rows = self.rows
            if self.cols.min() < 0 or self.cols.max() >= n or (rows == self.cols).any():
                raise ValueError("cols must be off-diagonal positions inside the block")
            keys = rows * n + self.cols
            if (np.diff(keys) <= 0).any():
                raise ValueError("cols must be strictly increasing within each row")
            if not np.array_equal(np.sort(self.cols * n + rows), keys):
                raise ValueError("the off-diagonal pattern of M must be symmetric")

    @classmethod
    def from_dense(
        cls,
        platform_a: str,
        platform_b: str,
        indices: np.ndarray,
        m: np.ndarray,
        d: np.ndarray | None = None,
        weight: float = 1.0,
    ) -> "ConsistencyBlock":
        """Build the block from a dense ``M`` (and optionally a dense ``D``).

        ``d`` defaults to the row sums of ``m``.
        """
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"m must be square, got shape {m.shape}")
        rows, cols = np.nonzero(m)
        off_diagonal = rows != cols
        rows, cols = rows[off_diagonal], cols[off_diagonal]
        counts = np.bincount(rows, minlength=m.shape[0])
        return cls(
            platform_a=platform_a,
            platform_b=platform_b,
            indices=indices,
            indptr=np.concatenate(([0], np.cumsum(counts))),
            cols=cols,
            values=m[rows, cols],
            affinity=np.diag(m).copy(),
            degree=m.sum(axis=1) if d is None else np.diag(d).copy(),
            weight=weight,
        )

    # ------------------------------------------------------------------
    # dense views (tests, spectral baseline)
    # ------------------------------------------------------------------
    @property
    def rows(self) -> np.ndarray:
        """Row position of every stored off-diagonal entry."""
        return np.repeat(np.arange(self.indices.size), np.diff(self.indptr))

    @property
    def m(self) -> np.ndarray:
        """Dense consistency matrix M."""
        out = np.zeros((self.indices.size, self.indices.size))
        out[self.rows, self.cols] = self.values
        np.fill_diagonal(out, self.affinity)
        return out

    @property
    def d(self) -> np.ndarray:
        """Dense diagonal degree matrix D."""
        return np.diag(self.degree)

    @property
    def laplacian(self) -> np.ndarray:
        """Dense ``Theta = D - M`` (positive semidefinite)."""
        return self.laplacian_restricted(np.arange(self.indices.size))

    def nonzero_fraction(self) -> float:
        """Sparsity statistic reported by the paper (Section 7.5)."""
        n = self.indices.size
        if n == 0:
            return 0.0
        return float(self.values.size + np.count_nonzero(self.affinity)) / (n * n)

    # ------------------------------------------------------------------
    # Theta = D - M without forming it
    # ------------------------------------------------------------------
    def laplacian_restricted(self, keep: np.ndarray) -> np.ndarray:
        """Dense ``Theta[keep][:, keep]`` for block-row positions ``keep``."""
        keep = np.asarray(keep, dtype=np.int64)
        position = np.full(self.indices.size, -1, dtype=np.int64)
        position[keep] = np.arange(keep.size)
        rows, cols = position[self.rows], position[self.cols]
        inside = (rows >= 0) & (cols >= 0)
        out = np.zeros((keep.size, keep.size))
        out[rows[inside], cols[inside]] = -self.values[inside]
        np.fill_diagonal(out, (self.degree - self.affinity)[keep])
        return out

    def laplacian_trace(self, gram: np.ndarray) -> float:
        """``trace(Theta @ gram[indices][:, indices])`` for a global ``gram``."""
        idx = self.indices
        return float(
            (self.degree - self.affinity) @ gram[idx, idx]
            - self.values @ gram[idx[self.rows], idx[self.cols]]
        )

    def laplacian_quadratic(self, f: np.ndarray) -> float:
        """``f^T Theta f`` for block-local ``f`` (``F_S`` up to its scale)."""
        return float(
            (self.degree - self.affinity) @ (f * f)
            - self.values @ (f[self.rows] * f[self.cols])
        )

    def add_laplacian_product(
        self, matrix: np.ndarray, out: np.ndarray, scale: float
    ) -> None:
        """``out[indices] += scale * Theta @ matrix[indices]``.

        ``matrix`` and ``out`` are indexed by global rows.  Row ``r`` of the
        product is the segment sum of ``(degree - affinity)[r] *
        matrix[indices[r]]`` and ``-values[j] * matrix[indices[cols[j]]]``
        over the row's stored entries.  The rows are gathered a chunk at a
        time into two work buffers of ``_PRODUCT_CHUNK`` elements that are
        allocated once, so the cost is one pass over ``nnz + n`` rows of
        ``matrix`` and no temporary grows with the block.
        """
        idx, n = self.indices, self.indices.size
        if n == 0:
            return
        if idx.min() < 0 or idx.max() >= matrix.shape[0]:
            raise ValueError("block indices exceed the rows of the matrix")
        # Theta as CSR with its diagonal stored first in every row
        indptr = self.indptr + np.arange(n + 1)
        counts = np.diff(indptr)
        source = np.insert(idx[self.cols], self.indptr[:-1], idx)
        weights = np.insert(
            -scale * self.values, self.indptr[:-1], scale * (self.degree - self.affinity)
        )

        step = max(_PRODUCT_CHUNK // max(matrix.shape[1], 1), int(counts.max()))
        gathered = np.empty((step, matrix.shape[1]))
        summed = np.empty_like(gathered)
        lo = 0
        while lo < n:
            # as many whole rows as fit `step` entries (every row fits alone)
            hi = int(np.searchsorted(indptr, indptr[lo] + step, side="right")) - 1
            first, last = indptr[lo], indptr[hi]
            terms = gathered[: last - first]
            np.take(matrix, source[first:last], axis=0, out=terms, mode="clip")
            terms *= weights[first:last, None]
            part = summed[: hi - lo]
            np.add.reduceat(terms, indptr[lo:hi] - first, axis=0, out=part)
            current = gathered[: hi - lo]
            np.take(out, idx[lo:hi], axis=0, out=current, mode="clip")
            current += part
            out[idx[lo:hi]] = current
            lo = hi


class StructureConsistencyBuilder:
    """Builds :class:`ConsistencyBlock` objects from behavior + graphs.

    Parameters
    ----------
    sigma1:
        Behavior-similarity bandwidth.  ``None`` uses a scaled median
        heuristic over the observed cross-platform behavior distances:
        ``sigma1 = sigma1_scale * sqrt(median(dist^2))``.  The scale < 1
        sharpens the affinity so that only genuinely consistent pairs carry
        weight — with the plain median, true and false candidates receive
        comparable affinity and the Laplacian over-smooths (the failure mode
        Section 6.4 warns about).
    sigma1_scale:
        Multiplier for the median heuristic (ignored when ``sigma1`` given).
    sigma2:
        Structure-sensitivity bandwidth on the ``d_ij`` closeness values
        ("controls the structure sensitivity of user social relations").
    max_hops:
        Graph search horizon; users farther apart are structurally unrelated
        and contribute nothing.  The default of 2 keeps M at the ~1 %
        non-zero density the paper reports.
    """

    def __init__(
        self,
        *,
        sigma1: float | None = None,
        sigma1_scale: float = 0.4,
        sigma2: float = 3.0,
        max_hops: int = 2,
    ):
        if sigma1 is not None and sigma1 <= 0:
            raise ValueError(f"sigma1 must be > 0, got {sigma1}")
        if sigma1_scale <= 0:
            raise ValueError(f"sigma1_scale must be > 0, got {sigma1_scale}")
        if sigma2 <= 0:
            raise ValueError(f"sigma2 must be > 0, got {sigma2}")
        if max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {max_hops}")
        self.sigma1 = sigma1
        self.sigma1_scale = sigma1_scale
        self.sigma2 = sigma2
        self.max_hops = max_hops

    # ------------------------------------------------------------------
    def build(
        self,
        world: SocialWorld,
        pairs: list[tuple[AccountRef, AccountRef]],
        behavior: dict[AccountRef, np.ndarray],
        *,
        indices: np.ndarray | None = None,
        weight: float = 1.0,
    ) -> ConsistencyBlock:
        """Construct the block for ``pairs`` (all from one platform pair).

        ``behavior`` maps account refs to per-user behavior representations
        (e.g. :meth:`repro.features.pipeline.FeaturePipeline.behavior_summary`);
        NaNs in the representations are treated as zero signal.

        The off-diagonal of M is emitted directly as CSR from a join of the
        two platforms' hop tables: every row ``a = (i, i')`` is expanded over
        the accounts ``j`` within ``max_hops`` of ``i``, then over the
        candidate rows ``b = (j, j')`` of each ``j``, and ``(i', j')`` is
        looked up in the other platform's table.  Time and memory follow the
        number of such row pairs; nothing of size ``n x n`` is allocated.
        """
        if not pairs:
            raise ValueError("pairs must not be empty")
        platform_a = pairs[0][0][0]
        platform_b = pairs[0][1][0]
        for ref_a, ref_b in pairs:
            if ref_a[0] != platform_a or ref_b[0] != platform_b:
                raise ValueError("all pairs in a block must share one platform pair")
        n = len(pairs)
        block_indices = (
            np.asarray(indices, dtype=np.int64)
            if indices is not None
            else np.arange(n, dtype=np.int64)
        )
        if block_indices.shape != (n,):
            raise ValueError(
                f"indices must have shape ({n},), got {block_indices.shape}"
            )

        # only accounts that appear in candidates matter; rows carry codes
        accounts_a = sorted({ref_a[1] for ref_a, _ in pairs})
        accounts_b = sorted({ref_b[1] for _, ref_b in pairs})
        code_of_a = {acc: k for k, acc in enumerate(accounts_a)}
        code_of_b = {acc: k for k, acc in enumerate(accounts_b)}
        code_a = np.array([code_of_a[ref_a[1]] for ref_a, _ in pairs], dtype=np.int64)
        code_b = np.array([code_of_b[ref_b[1]] for _, ref_b in pairs], dtype=np.int64)

        # cross-platform behavior distances per candidate
        summary_a = np.nan_to_num(
            np.array([behavior[(platform_a, acc)] for acc in accounts_a], dtype=float),
            nan=0.0,
        )
        summary_b = np.nan_to_num(
            np.array([behavior[(platform_b, acc)] for acc in accounts_b], dtype=float),
            nan=0.0,
        )
        dist_sq = ((summary_a[code_a] - summary_b[code_b]) ** 2).sum(axis=1)
        sigma1 = self.sigma1
        if sigma1 is None:
            positive = dist_sq[dist_sq > 0]
            sigma1 = (
                self.sigma1_scale * float(np.sqrt(np.median(positive)))
                if positive.size
                else 1.0
            )
        sigma1_sq = sigma1 * sigma1
        sigma2_sq = self.sigma2 * self.sigma2
        affinity = np.exp(-dist_sq / sigma1_sq)

        ptr_a, near_a, hops_a = self._hop_table(
            world.platforms[platform_a].graph, code_of_a
        )
        ptr_b, near_b, hops_b = self._hop_table(
            world.platforms[platform_b].graph, code_of_b
        )
        # platform b is only ever probed: sorted (account, account) keys
        keys_b = (
            np.repeat(np.arange(len(accounts_b)), np.diff(ptr_b)) * len(accounts_b)
            + near_b
        )
        # candidate rows of each platform-a account, ascending
        rows_of_a = np.argsort(code_a, kind="stable")
        row_counts = np.bincount(code_a, minlength=len(accounts_a))
        row_ptr = np.cumsum(row_counts) - row_counts

        # chunk the rows so each join expands to about _JOIN_CHUNK row pairs
        near_counts = np.diff(ptr_a)
        per_account = np.bincount(
            np.repeat(np.arange(len(accounts_a)), near_counts),
            weights=row_counts[near_a],
            minlength=len(accounts_a),
        )
        expansion = np.cumsum(per_account[code_a])
        total = expansion[-1] if keys_b.size else 0.0
        cuts = np.unique(np.searchsorted(expansion, np.arange(0.0, total, _JOIN_CHUNK)))
        # (row_a, row_b, value) of the upper triangle, a triple per chunk
        upper = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
        for lo, hi in zip(cuts, np.append(cuts[1:], n)):
            # rows a = (i, i') x accounts j near i on platform a ...
            account_i = code_a[lo:hi]
            owner, at = _ranges(ptr_a[account_i], near_counts[account_i])
            row_a, account_j, hop_ij = owner + lo, near_a[at], hops_a[at]
            # ... x candidate rows b = (j, j') of each j, upper triangle only
            owner, at = _ranges(row_ptr[account_j], row_counts[account_j])
            row_a, hop_ij, row_b = row_a[owner], hop_ij[owner], rows_of_a[at]
            later = row_b > row_a
            row_a, hop_ij, row_b = row_a[later], hop_ij[later], row_b[later]
            # ... where j' is near i' on platform b
            key = code_b[row_a] * len(accounts_b) + code_b[row_b]
            at = np.minimum(np.searchsorted(keys_b, key), keys_b.size - 1)
            hit = keys_b[at] == key
            row_a, row_b = row_a[hit], row_b[hit]
            d_ij = (hop_ij[hit] ** 2).astype(float)
            d_ipjp = (hops_b[at[hit]] ** 2).astype(float)
            structural = 1.0 - (d_ij - d_ipjp) ** 2 / sigma2_sq
            behavioral = np.exp(
                -(dist_sq[row_a] + dist_sq[row_b]) / (2.0 * sigma1_sq)
            )
            value = behavioral * structural
            # "M(a,b) = 0 if the inconsistency is too large"; no zero is stored
            keep = (structural > 0.0) & (value > 0.0)
            upper.append((row_a[keep], row_b[keep], value[keep]))

        row_a, row_b, value = (np.concatenate(part) for part in zip(*upper))
        rows = np.concatenate((row_a, row_b))
        cols = np.concatenate((row_b, row_a))
        values = np.concatenate((value, value))
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        return ConsistencyBlock(
            platform_a=platform_a,
            platform_b=platform_b,
            indices=block_indices,
            indptr=np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))),
            cols=cols,
            values=values,
            affinity=affinity,
            degree=affinity + np.bincount(rows, weights=values, minlength=n),
            weight=weight,
        )

    def _hop_table(
        self, graph: SocialGraph, code_of: dict[str, int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hop counts between candidate accounts, as CSR over account codes.

        ``code_of`` numbers the candidate accounts ``0..len - 1`` in order.
        Returns ``(ptr, near, hops)``: account ``k`` reaches the *other*
        candidate accounts ``near[ptr[k]:ptr[k + 1]]`` (ascending) within
        ``max_hops``, in ``hops[...]`` edges.  ``d_ij = hops^2`` is the
        paper's ``(k_ij + 1)^2`` with ``k_ij`` intermediate users.
        """
        ptr = np.zeros(len(code_of) + 1, dtype=np.int64)
        near: list[int] = []
        hops: list[int] = []
        for acc, k in code_of.items():
            reach = graph.hop_counts_from(acc, max_hops=self.max_hops)
            found = sorted(
                (code_of[other], hop)
                for other, hop in reach.items()
                if other in code_of and other != acc
            )
            near.extend(code for code, _ in found)
            hops.extend(hop for _, hop in found)
            ptr[k + 1] = len(near)
        return ptr, np.array(near, dtype=np.int64), np.array(hops, dtype=np.int64)

"""Batch variational-Bayes LDA (Blei et al. 2003; Hoffman et al. 2010 updates).

The collapsed Gibbs sampler in :mod:`repro.text.lda` is the reference
implementation, but it resamples token-by-token in Python and the experiment
harness has to infer topic distributions for tens of thousands of messages per
run.  This module provides the production path: vectorized mean-field
variational inference, mathematically the standard approximation of the same
model.

Messages are short and the doc-term matrix is ~1-2% nonzero, so the E-step
never materializes it: documents are held as CSR triples ``(indptr, word_idx,
count)`` and every quantity is evaluated at the nonzero (document, word)
entries only.

Convergence is decided **per document**: a document whose own mean
``|delta gamma|`` drops below ``1e-3`` is frozen and leaves the active set
(``e_step_iterations`` stays the ceiling).  Every update of a document reads
only that document's entries and its own row of the initial draw, so its
result is bit-for-bit independent of which other documents share the call.

The digamma function is implemented locally (fixed shift + asymptotic series)
to keep the core library numpy-only.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_rng

__all__ = ["digamma", "VariationalLDA"]


#: A document whose mean ``|delta gamma|`` over one update falls below this is
#: converged and frozen.  Fixed, not a knob: tests zero it to compare the
#: capped iteration against the dense oracle.
_GAMMA_TOLERANCE = 1e-3


def digamma(x: np.ndarray | float) -> np.ndarray:
    """Elementwise digamma via a fixed shift + asymptotic expansion.

    Uses ``psi(x) = psi(x + 6) - sum_{j<6} 1/(x + j)`` (branch-free: every
    argument is shifted by 6), then the standard asymptotic series; accurate
    to ~1e-8 for x > 0, far beyond what mean-field updates need.
    """
    x = np.asarray(x, dtype=float)
    if not (x > 0).all():  # also catches NaN, which no comparison admits
        raise ValueError("digamma requires strictly positive arguments")
    y = x + 6.0
    inv = 1.0 / y
    inv2 = inv * inv
    return (
        np.log(y)
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0))
        - 1.0 / x - 1.0 / (x + 1.0) - 1.0 / (x + 2.0)
        - 1.0 / (x + 3.0) - 1.0 / (x + 4.0) - 1.0 / (x + 5.0)
    )


def _exp_dirichlet_expectation(param: np.ndarray) -> np.ndarray:
    """``exp(E[log p])`` for rows ``p ~ Dirichlet(param[i])``."""
    return np.exp(digamma(param) - digamma(param.sum(axis=1, keepdims=True)))


def _doc_term_csr(
    documents: list[list[int] | np.ndarray], vocab_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR doc-term triple ``(indptr, word_idx, count)`` from id lists.

    Document ``d`` owns entries ``indptr[d]:indptr[d + 1]``: its distinct
    word ids in ascending order and how often each occurs.
    """
    num_docs = len(documents)
    lengths = np.fromiter(map(len, documents), dtype=np.int64, count=num_docs)
    flat = np.zeros(0, dtype=np.int64)
    if lengths.sum():
        flat = np.concatenate([np.asarray(d, dtype=np.int64) for d in documents])
        if flat.min() < 0 or flat.max() >= vocab_size:
            raise ValueError("document contains word ids outside the vocabulary")
    keys, count = np.unique(
        np.repeat(np.arange(num_docs), lengths) * vocab_size + flat,
        return_counts=True,
    )
    indptr = np.zeros(num_docs + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // vocab_size, minlength=num_docs), out=indptr[1:])
    return indptr, keys % vocab_size, count.astype(float)


class VariationalLDA:
    """LDA fitted by batch variational EM on a sparse (CSR) doc-term layout.

    The E-step touches only nonzero (document, word) entries and freezes each
    document as soon as its own ``gamma`` stops moving (see the module
    docstring), so a document's topic vector never depends on its batch.

    Parameters mirror :class:`repro.text.lda.LatentDirichletAllocation`; the
    fitted attributes ``topic_word_`` (K, V) and ``doc_topic_`` (D, K) have
    identical semantics so the two implementations are interchangeable.

    Examples
    --------
    >>> docs = [[0, 0, 1], [1, 1, 0], [2, 3, 2], [3, 2, 3]]
    >>> lda = VariationalLDA(num_topics=2, vocab_size=4, seed=0).fit(docs)
    >>> lda.doc_topic_.shape
    (4, 2)
    """

    def __init__(
        self,
        num_topics: int,
        vocab_size: int,
        *,
        alpha: float | None = None,
        eta: float = 0.01,
        em_iterations: int = 30,
        e_step_iterations: int = 20,
        seed: int | np.random.Generator | None = None,
    ):
        if num_topics < 1:
            raise ValueError(f"num_topics must be >= 1, got {num_topics}")
        if vocab_size < 1:
            raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
        self.num_topics = int(num_topics)
        self.vocab_size = int(vocab_size)
        self.alpha = float(alpha) if alpha is not None else 1.0 / num_topics
        self.eta = float(eta)
        self.em_iterations = int(em_iterations)
        self.e_step_iterations = int(e_step_iterations)
        self._rng = as_rng(seed)
        self.topic_word_: np.ndarray | None = None
        self.doc_topic_: np.ndarray | None = None
        self._lambda: np.ndarray | None = None
        # exp(E[log beta]) memo for transform(): the digamma pass over the
        # (K, V) topic matrix dominates small transforms (online ingestion
        # infers one account at a time), so it is computed once per fit
        self._transform_beta: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _e_step(
        self,
        csr: tuple[np.ndarray, np.ndarray, np.ndarray],
        exp_elog_beta: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Mean-field document updates over CSR entries; returns gamma.

        Row ``d`` of the result is a function of document ``d``'s entries
        and row ``d`` of the initial draw alone: converged documents are
        frozen one by one, and every reduction runs inside one document.
        """
        indptr, word_idx, count = csr
        rng = self._rng if rng is None else rng
        gamma = rng.gamma(100.0, 0.01, (indptr.size - 1, self.num_topics))
        lengths = np.diff(indptr)
        gamma[lengths == 0] = self.alpha  # no tokens: the prior, as dense gives
        # active set: non-empty, not yet converged documents and their entries
        rows = np.flatnonzero(lengths)
        lengths = lengths[rows]
        active = gamma[rows]
        beta = exp_elog_beta.T[word_idx]  # (entries, K)
        for _ in range(self.e_step_iterations):
            if not rows.size:
                break
            exp_elog_theta = _exp_dirichlet_expectation(active)
            # phinorm[n] = sum_k expElogtheta[doc(n), k] expElogbeta[k, word(n)]
            phinorm = np.einsum(
                "nk,nk->n", np.repeat(exp_elog_theta, lengths, axis=0), beta
            ) + 1e-100
            updated = self.alpha + exp_elog_theta * np.add.reduceat(
                beta * (count / phinorm)[:, None],
                np.cumsum(lengths) - lengths,
                axis=0,
            )
            done = np.abs(updated - active).mean(axis=1) < _GAMMA_TOLERANCE
            active = updated
            if done.any():
                gamma[rows[done]] = active[done]
                keep = np.repeat(~done, lengths)
                beta, count = np.compress(keep, beta, axis=0), count[keep]
                rows, lengths, active = rows[~done], lengths[~done], active[~done]
        gamma[rows] = active
        return gamma

    def _sufficient_stats(
        self,
        csr: tuple[np.ndarray, np.ndarray, np.ndarray],
        exp_elog_beta: np.ndarray,
        gamma: np.ndarray,
    ) -> np.ndarray:
        """Expected topic-word counts (K, V) under the documents' ``gamma``."""
        indptr, word_idx, count = csr
        exp_elog_theta = np.repeat(
            _exp_dirichlet_expectation(gamma), np.diff(indptr), axis=0
        )
        phinorm = np.einsum("nk,nk->n", exp_elog_theta, exp_elog_beta.T[word_idx])
        weights = exp_elog_theta.T * (count / (phinorm + 1e-100))  # (K, entries)
        return exp_elog_beta * np.stack(
            [np.bincount(word_idx, w, minlength=self.vocab_size) for w in weights]
        )

    def fit(self, documents: list[list[int] | np.ndarray]) -> "VariationalLDA":
        """Run variational EM on ``documents`` (lists of word ids)."""
        csr = _doc_term_csr(documents, self.vocab_size)
        lam = self._rng.gamma(100.0, 0.01, (self.num_topics, self.vocab_size))
        for _ in range(self.em_iterations):
            exp_elog_beta = _exp_dirichlet_expectation(lam)
            gamma = self._e_step(csr, exp_elog_beta)
            lam = self.eta + self._sufficient_stats(csr, exp_elog_beta, gamma)
        self._lambda = lam
        self._transform_beta = None
        self.topic_word_ = lam / lam.sum(axis=1, keepdims=True)
        self.doc_topic_ = gamma / gamma.sum(axis=1, keepdims=True)
        return self

    def __getstate__(self) -> dict:
        # the transform memo is derived state: drop it from pickles (and
        # from persisted artifacts) and recompute on first use
        state = dict(self.__dict__)
        state["_transform_beta"] = None
        return state

    def transform(
        self,
        documents: list[list[int] | np.ndarray],
        *,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Per-document topic distributions for new documents.

        ``rng`` overrides the model's (stateful) generator for the
        variational initialization: callers that need *reproducible*
        inference — online ingestion infers each new account's topics under
        a per-account derived seed — pass a fresh generator instead of
        consuming the shared stream.  Row ``i`` depends only on
        ``documents[i]`` and row ``i`` of that initial draw, never on the
        other documents in the call.
        """
        if self._lambda is None:
            raise RuntimeError("model is not fitted; call fit() first")
        exp_elog_beta = getattr(self, "_transform_beta", None)
        if exp_elog_beta is None:
            exp_elog_beta = _exp_dirichlet_expectation(self._lambda)
            self._transform_beta = exp_elog_beta
        csr = _doc_term_csr(documents, self.vocab_size)
        gamma = self._e_step(csr, exp_elog_beta, rng=rng)
        theta = gamma / gamma.sum(axis=1, keepdims=True)
        # documents with no tokens carry no information: uniform
        theta[np.diff(csr[0]) == 0] = 1.0 / self.num_topics
        return theta

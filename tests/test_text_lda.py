"""Tests for both LDA implementations (collapsed Gibbs and variational)."""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.text import LatentDirichletAllocation, VariationalLDA, digamma, variational
from repro.text.variational import _doc_term_csr, _exp_dirichlet_expectation


def _two_topic_corpus(rng, docs_per_topic=25, doc_len=20):
    """Planted corpus: topic 0 uses words 0-4, topic 1 uses words 5-9."""
    docs = []
    for topic in (0, 1):
        lo = 0 if topic == 0 else 5
        for _ in range(docs_per_topic):
            docs.append(list(rng.integers(lo, lo + 5, size=doc_len)))
    return docs


class _FixedDraw:
    """Generator stand-in: the variational initialization is this table."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def gamma(self, shape, scale, size):
        assert size == self.rows.shape
        return self.rows.copy()


def _recurrence_digamma(x):
    """The pre-CSR implementation: masked shift loop + the same series."""
    x = np.asarray(x, dtype=float)
    result = np.zeros_like(x)
    y = x.copy()
    while (y < 6).any():
        mask = y < 6
        result[mask] -= 1.0 / y[mask]
        y[mask] += 1.0
    inv = 1.0 / y
    inv2 = inv * inv
    return result + (
        np.log(y) - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0))
    )


def _dense_e_step(documents, vocab_size, exp_elog_beta, gamma, alpha, iterations):
    """Oracle: the dense doc-term E-step the CSR one replaced (cap only)."""
    counts = np.zeros((len(documents), vocab_size))
    for row, doc in enumerate(documents):
        np.add.at(counts[row], np.asarray(doc, dtype=np.int64), 1.0)
    for _ in range(iterations):
        exp_elog_theta = _exp_dirichlet_expectation(gamma)
        phinorm = exp_elog_theta @ exp_elog_beta + 1e-100
        gamma = alpha + exp_elog_theta * ((counts / phinorm) @ exp_elog_beta.T)
    exp_elog_theta = _exp_dirichlet_expectation(gamma)
    phinorm = exp_elog_theta @ exp_elog_beta + 1e-100
    return gamma, exp_elog_beta * (exp_elog_theta.T @ (counts / phinorm))


@st.composite
def _corpora(draw):
    """(docs, V, K): short id lists incl. empty docs, repeats, V=1, K=1."""
    vocab_size = draw(st.integers(1, 12))
    num_topics = draw(st.integers(1, 4))
    word = st.integers(0, vocab_size - 1)
    docs = draw(st.lists(st.lists(word, max_size=25), min_size=1, max_size=12))
    return docs, vocab_size, num_topics


class TestDigamma:
    def test_matches_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        x = np.geomspace(1e-3, 1e4, 2000)
        # absolute: psi crosses zero at x ~ 1.46
        np.testing.assert_allclose(
            digamma(x), scipy_special.digamma(x), rtol=0, atol=1e-8
        )

    def test_matches_shift_recurrence(self):
        x = np.geomspace(1e-3, 1e4, 20000)
        np.testing.assert_allclose(
            digamma(x), _recurrence_digamma(x), rtol=0, atol=1e-8
        )

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            digamma(np.array([0.0]))

    @pytest.mark.parametrize("bad", [-1.5, np.nan])
    def test_rejects_negative_and_nan_among_valid(self, bad):
        # NaN fails every comparison: `(x <= 0).any()` used to let it through
        with pytest.raises(ValueError):
            digamma(np.array([1.0, bad]))

    def test_scalar_input(self):
        assert digamma(1.0) == pytest.approx(-0.5772156649, abs=1e-8)


class TestGibbsLda:
    def test_fit_shapes(self):
        docs = [[0, 1], [2, 3], [0, 2]]
        lda = LatentDirichletAllocation(2, vocab_size=4, iterations=5, seed=0).fit(docs)
        assert lda.topic_word_.shape == (2, 4)
        assert lda.doc_topic_.shape == (3, 2)

    def test_distributions_normalized(self):
        docs = [[0, 1, 2]] * 4
        lda = LatentDirichletAllocation(3, vocab_size=3, iterations=5, seed=0).fit(docs)
        np.testing.assert_allclose(lda.topic_word_.sum(axis=1), 1.0)
        np.testing.assert_allclose(lda.doc_topic_.sum(axis=1), 1.0)

    def test_recovers_planted_topics(self):
        rng = np.random.default_rng(0)
        docs = _two_topic_corpus(rng)
        lda = LatentDirichletAllocation(
            2, vocab_size=10, iterations=60, seed=1
        ).fit(docs)
        # each learned topic should concentrate on one planted word block
        block_mass = lda.topic_word_[:, :5].sum(axis=1)
        assert (block_mass > 0.9).any() and (block_mass < 0.1).any()

    def test_transform_empty_doc_uniform(self):
        docs = [[0, 1], [2, 3]]
        lda = LatentDirichletAllocation(2, vocab_size=4, iterations=5, seed=0).fit(docs)
        theta = lda.transform([[]])
        np.testing.assert_allclose(theta[0], 0.5)

    def test_transform_before_fit_raises(self):
        lda = LatentDirichletAllocation(2, vocab_size=4)
        with pytest.raises(RuntimeError):
            lda.transform([[0]])

    def test_out_of_vocab_raises(self):
        lda = LatentDirichletAllocation(2, vocab_size=4)
        with pytest.raises(ValueError):
            lda.fit([[99]])

    def test_perplexity_finite(self):
        docs = [[0, 1, 0], [1, 0, 1]]
        lda = LatentDirichletAllocation(2, vocab_size=2, iterations=10, seed=0).fit(docs)
        assert np.isfinite(lda.perplexity(docs))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LatentDirichletAllocation(0, vocab_size=4)
        with pytest.raises(ValueError):
            LatentDirichletAllocation(2, vocab_size=0)


class TestVariationalLda:
    def test_fit_shapes_and_normalization(self):
        docs = [[0, 1], [2, 3], [0, 2], [1, 3]]
        lda = VariationalLDA(2, vocab_size=4, em_iterations=10, seed=0).fit(docs)
        assert lda.topic_word_.shape == (2, 4)
        np.testing.assert_allclose(lda.topic_word_.sum(axis=1), 1.0)
        np.testing.assert_allclose(lda.doc_topic_.sum(axis=1), 1.0, rtol=1e-6)

    def test_recovers_planted_topics(self):
        rng = np.random.default_rng(3)
        docs = _two_topic_corpus(rng)
        lda = VariationalLDA(2, vocab_size=10, em_iterations=25, seed=4).fit(docs)
        block_mass = lda.topic_word_[:, :5].sum(axis=1)
        assert (block_mass > 0.9).any() and (block_mass < 0.1).any()

    def test_transform_assigns_planted_topic(self):
        rng = np.random.default_rng(5)
        docs = _two_topic_corpus(rng)
        lda = VariationalLDA(2, vocab_size=10, em_iterations=25, seed=6).fit(docs)
        theta = lda.transform([[0, 1, 2, 0], [7, 8, 9, 7]])
        # the two test docs use disjoint planted blocks: opposite argmax
        assert theta[0].argmax() != theta[1].argmax()

    def test_transform_independent_of_batch_composition(self):
        rng = np.random.default_rng(8)
        docs = _two_topic_corpus(rng, docs_per_topic=10) + [[], [3] * 40]
        lda = VariationalLDA(2, vocab_size=10, em_iterations=15, seed=9).fit(docs)
        init = rng.gamma(100.0, 0.01, (len(docs), 2))
        full = lda.transform(docs, rng=_FixedDraw(init))
        np.testing.assert_allclose(full.sum(axis=1), 1.0, rtol=1e-6)
        # a row is a function of its document and its initial-gamma row only:
        # permuting or truncating the batch around it changes no bit
        subsets = [rng.permutation(len(docs)), np.arange(5, 17), np.array([21, 3])]
        subsets += [np.array([i]) for i in range(len(docs))]
        for take in subsets:
            part = lda.transform(
                [docs[i] for i in take], rng=_FixedDraw(init[take])
            )
            np.testing.assert_array_equal(part, full[take])

    def test_empty_doc_is_uniform(self):
        docs = [[0, 1], [2, 3]]
        lda = VariationalLDA(2, vocab_size=4, em_iterations=5, seed=0).fit(docs)
        theta = lda.transform([[], [0]])
        np.testing.assert_allclose(theta[0], 0.5)

    def test_doc_term_csr(self):
        indptr, word_idx, count = _doc_term_csr([[2, 0, 0], [], np.array([1])], 3)
        assert indptr.tolist() == [0, 2, 2, 3]
        assert word_idx.tolist() == [0, 2, 1]
        assert count.tolist() == [2.0, 1.0, 1.0]

    def test_doc_term_csr_of_nothing(self):
        for docs in ([], [[], []]):
            indptr, word_idx, count = _doc_term_csr(docs, 3)
            assert indptr.tolist() == [0] * (len(docs) + 1)
            assert word_idx.size == count.size == 0

    @pytest.mark.parametrize("bad", [5, 3, -1])
    def test_doc_term_csr_rejects_out_of_vocab(self, bad):
        with pytest.raises(ValueError):
            _doc_term_csr([[0], [bad]], 3)
        with pytest.raises(ValueError):
            VariationalLDA(2, vocab_size=3).fit([[0], [bad]])

    @settings(max_examples=60, deadline=None)
    @given(_corpora(), st.integers(0, 2**32 - 1), st.sampled_from([0.05, 1.0, 100.0]))
    def test_sparse_e_step_matches_dense_oracle(self, corpus, seed, peakedness):
        docs, vocab_size, num_topics = corpus
        rng = np.random.default_rng(seed)
        lda = VariationalLDA(num_topics, vocab_size)
        # from near-one-hot topics (shape 0.05) to the flat first EM round
        beta = _exp_dirichlet_expectation(
            1e-3 + rng.gamma(peakedness, 1.0, (num_topics, vocab_size))
        )
        init = rng.gamma(100.0, 0.01, (len(docs), num_topics))
        want_gamma, want_sstats = _dense_e_step(
            docs, vocab_size, beta, init, lda.alpha, lda.e_step_iterations
        )
        csr = _doc_term_csr(docs, vocab_size)
        # cap only: the same 20 updates, entry by entry instead of densely
        with mock.patch.object(variational, "_GAMMA_TOLERANCE", 0.0):
            gamma = lda._e_step(csr, beta, _FixedDraw(init))
        np.testing.assert_allclose(gamma, want_gamma, rtol=0, atol=1e-8)
        np.testing.assert_allclose(
            lda._sufficient_stats(csr, beta, gamma), want_sstats, rtol=0, atol=1e-8
        )
        # per-document freezing stops a document within ~1e-3 in gamma of
        # where the cap would leave it; theta may differ in the third digit
        frozen = lda._e_step(csr, beta, _FixedDraw(init))
        np.testing.assert_allclose(
            frozen / frozen.sum(axis=1, keepdims=True),
            want_gamma / want_gamma.sum(axis=1, keepdims=True),
            rtol=0, atol=1e-2,
        )

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            VariationalLDA(2, vocab_size=3).transform([[0]])

    def test_older_pickle_without_memo_transforms_identically(self):
        # artifacts written before the transform memo existed carry no
        # `_transform_beta`; nothing the E-step needs is a new attribute
        docs = [[0, 1], [2, 3], [0, 2], [1, 3]]
        lda = VariationalLDA(2, vocab_size=4, em_iterations=5, seed=0).fit(docs)
        state = lda.__getstate__()
        del state["_transform_beta"]
        old = VariationalLDA.__new__(VariationalLDA)
        old.__dict__.update(pickle.loads(pickle.dumps(state)))
        np.testing.assert_array_equal(
            old.transform(docs, rng=np.random.default_rng(1)),
            lda.transform(docs, rng=np.random.default_rng(1)),
        )

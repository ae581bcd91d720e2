"""The sparse consistency structure against its dense oracles.

``ConsistencyBlock`` stores the off-diagonal of M as CSR; the builder emits
it from a vectorized join and ``MultiObjectiveModel.fit`` consumes it without
a dense ``n x n`` scatter.  ``tests/dense_oracles.py`` keeps the dense bodies
both replaced; these tests hold the sparse code to them, and put ceilings on
what the sparse code may allocate.
"""

import tracemalloc

import numpy as np
import pytest
from dense_oracles import dense_consistency, dense_fit
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConsistencyBlock,
    MooConfig,
    MultiObjectiveModel,
    StructureConsistencyBuilder,
)
from repro.socialnet.platform import PlatformData, SocialWorld


# ---------------------------------------------------------------------------
# random structures
# ---------------------------------------------------------------------------
def _random_m(rng, size, density, isolated=0):
    """Symmetric M with positive diagonal; the last ``isolated`` rows have
    no neighbour."""
    upper = np.triu(rng.uniform(0.1, 1.0, (size, size)), k=1)
    upper *= rng.uniform(size=(size, size)) < density
    if isolated:
        upper[:, size - isolated:] = 0.0
    m = upper + upper.T
    np.fill_diagonal(m, rng.uniform(0.2, 1.0, size))
    return m


def _random_blocks(rng, n, num_blocks, density):
    """Blocks over random (overlapping) subsets of the ``n`` global rows."""
    blocks = []
    for _ in range(num_blocks):
        size = int(rng.integers(2, n + 1))
        indices = rng.permutation(n)[:size]
        m = _random_m(rng, size, density, isolated=int(rng.integers(0, size // 2 + 1)))
        blocks.append(
            ConsistencyBlock.from_dense(
                "a", "b", indices, m, weight=float(rng.uniform(0.5, 2.0))
            )
        )
    return blocks


def _random_world(rng, num_accounts, num_edges):
    """Two platforms of ``num_accounts`` nodes with ``num_edges`` random edges."""
    world = SocialWorld()
    for name in ("pa", "pb"):
        platform = PlatformData(name=name, language="en")
        for _ in range(num_edges):
            i, j = rng.choice(num_accounts, size=2, replace=False)
            platform.graph.add_interaction(f"{name}{i}", f"{name}{j}", 1.0)
        world.add_platform(platform)
    return world


def _random_candidates(rng, num_accounts, per_account, dim=4):
    """``per_account`` distinct partners for every platform-a account."""
    pairs = [
        (("pa", f"pa{i}"), ("pb", f"pb{j}"))
        for i in range(num_accounts)
        for j in rng.choice(num_accounts, size=per_account, replace=False)
    ]
    behavior = {
        (name, f"{name}{i}"): rng.normal(size=dim)
        for name in ("pa", "pb")
        for i in range(num_accounts)
    }
    behavior[("pa", "pa0")][0] = np.nan  # NaNs count as zero signal
    return pairs, behavior


# ---------------------------------------------------------------------------
# the block itself
# ---------------------------------------------------------------------------
class TestConsistencyBlock:
    def test_dense_views_round_trip(self):
        rng = np.random.default_rng(0)
        m = _random_m(rng, 12, 0.3, isolated=3)
        block = ConsistencyBlock.from_dense("a", "b", np.arange(12), m)
        assert np.array_equal(block.m, m)
        assert np.array_equal(block.d, np.diag(m.sum(axis=1)))
        assert np.array_equal(block.laplacian, block.d - block.m)
        assert block.values.size == np.count_nonzero(m) - 12
        assert block.nonzero_fraction() == np.count_nonzero(m) / m.size

    def test_explicit_degree_is_kept(self):
        m = _random_m(np.random.default_rng(1), 6, 0.5)
        d = np.diag(np.arange(1.0, 7.0))
        block = ConsistencyBlock.from_dense("a", "b", np.arange(6), m, d)
        assert np.array_equal(block.d, d)
        assert np.array_equal(block.laplacian, d - m)

    def test_sparse_contractions_match_dense(self):
        rng = np.random.default_rng(2)
        n = 20
        indices = rng.permutation(n)[:9]
        block = ConsistencyBlock.from_dense(
            "a", "b", indices, _random_m(rng, 9, 0.4, isolated=2)
        )
        gram = rng.normal(size=(n, n))
        f = rng.normal(size=9)
        theta = block.laplacian
        np.testing.assert_allclose(
            block.laplacian_trace(gram),
            np.trace(theta @ gram[np.ix_(indices, indices)]),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            block.laplacian_quadratic(f), f @ theta @ f, rtol=1e-12
        )
        out = rng.normal(size=(n, n))
        expected = out.copy()
        expected[indices] += 0.7 * theta @ gram[indices]
        block.add_laplacian_product(gram, out, 0.7)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
        keep = np.array([1, 4, 5, 8])
        assert np.array_equal(
            block.laplacian_restricted(keep), theta[np.ix_(keep, keep)]
        )

    def test_product_chunks_agree(self, monkeypatch):
        """Work buffers smaller than the block give the same product."""
        rng = np.random.default_rng(3)
        block = ConsistencyBlock.from_dense(
            "a", "b", np.arange(40), _random_m(rng, 40, 0.2, isolated=5)
        )
        gram = rng.normal(size=(40, 40))
        whole = np.zeros((40, 40))
        block.add_laplacian_product(gram, whole, 1.0)
        monkeypatch.setattr("repro.core.consistency._PRODUCT_CHUNK", 40)
        chunked = np.zeros((40, 40))
        block.add_laplacian_product(gram, chunked, 1.0)
        assert np.array_equal(whole, chunked)
        np.testing.assert_allclose(whole, block.laplacian @ gram, atol=1e-12)

    def _arrays(self):
        """A valid 3-row block: rows 0 and 1 are neighbours, row 2 is alone."""
        return dict(
            platform_a="a",
            platform_b="b",
            indices=np.array([4, 2, 7]),
            indptr=np.array([0, 1, 2, 2]),
            cols=np.array([1, 0]),
            values=np.array([0.5, 0.5]),
            affinity=np.ones(3),
            degree=np.array([1.5, 1.5, 1.0]),
        )

    def test_valid_arrays_accepted(self):
        block = ConsistencyBlock(**self._arrays())
        assert block.m[0, 1] == block.m[1, 0] == 0.5

    def test_duplicate_indices_rejected(self):
        """Fancy ``+=`` used to drop repeated rows silently; now they raise."""
        arrays = self._arrays()
        arrays["indices"] = np.array([4, 2, 4])
        with pytest.raises(ValueError, match="unique"):
            ConsistencyBlock(**arrays)
        with pytest.raises(ValueError, match="unique"):
            ConsistencyBlock.from_dense("a", "b", np.array([1, 1]), np.eye(2))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("degree", np.ones(2)),
            ("affinity", np.ones(4)),
            ("indptr", np.array([0, 1, 2])),
            ("values", np.array([0.5])),
        ],
    )
    def test_length_mismatch_rejected(self, name, value):
        arrays = self._arrays()
        arrays[name] = value
        with pytest.raises(ValueError):
            ConsistencyBlock(**arrays)

    def test_asymmetric_pattern_rejected(self):
        arrays = self._arrays()
        arrays.update(indptr=np.array([0, 1, 1, 1]), cols=np.array([1]),
                      values=np.array([0.5]))
        with pytest.raises(ValueError, match="symmetric"):
            ConsistencyBlock(**arrays)

    def test_diagonal_and_unsorted_entries_rejected(self):
        arrays = self._arrays()
        arrays["cols"] = np.array([0, 1])  # both on the diagonal
        with pytest.raises(ValueError, match="off-diagonal"):
            ConsistencyBlock(**arrays)
        arrays = self._arrays()
        arrays.update(indptr=np.array([0, 2, 3, 4]), cols=np.array([2, 1, 0, 0]),
                      values=np.full(4, 0.5))
        with pytest.raises(ValueError, match="increasing"):
            ConsistencyBlock(**arrays)


# ---------------------------------------------------------------------------
# builder == the triple loop
# ---------------------------------------------------------------------------
class TestBuilderAgainstOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_hops=st.sampled_from([1, 2, 3]),
        sigma1=st.sampled_from([None, 0.8]),
        num_edges=st.sampled_from([0, 6, 25]),
    )
    def test_csr_equals_dense_m(self, seed, max_hops, sigma1, num_edges):
        rng = np.random.default_rng(seed)
        world = _random_world(rng, num_accounts=12, num_edges=num_edges)
        pairs, behavior = _random_candidates(rng, 12, per_account=3)
        builder = StructureConsistencyBuilder(max_hops=max_hops, sigma1=sigma1)
        block = builder.build(world, pairs, behavior)
        m, d = dense_consistency(builder, world, pairs, behavior)
        np.testing.assert_allclose(block.m, m, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(block.d, d, rtol=1e-12, atol=1e-12)
        assert block.nonzero_fraction() == np.count_nonzero(m) / m.size

    def test_join_chunks_agree(self, monkeypatch):
        """Many small join steps emit the same CSR as one large step."""
        rng = np.random.default_rng(4)
        world = _random_world(rng, num_accounts=20, num_edges=40)
        pairs, behavior = _random_candidates(rng, 20, per_account=4)
        builder = StructureConsistencyBuilder(max_hops=2)
        whole = builder.build(world, pairs, behavior)
        monkeypatch.setattr("repro.core.consistency._JOIN_CHUNK", 16)
        chunked = builder.build(world, pairs, behavior)
        assert whole.values.size > 0
        for name in ("indptr", "cols", "values", "affinity", "degree"):
            assert np.array_equal(getattr(whole, name), getattr(chunked, name))

    def test_accounts_missing_from_graph(self):
        """No edges at all: M is its diagonal and D equals it."""
        rng = np.random.default_rng(5)
        world = _random_world(rng, num_accounts=5, num_edges=0)
        pairs, behavior = _random_candidates(rng, 5, per_account=2)
        block = StructureConsistencyBuilder().build(world, pairs, behavior)
        assert block.values.size == 0
        assert np.array_equal(block.degree, block.affinity)


# ---------------------------------------------------------------------------
# fit == the dense scatter + solve
# ---------------------------------------------------------------------------
class TestFitAgainstOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_blocks=st.sampled_from([1, 3]),
        density=st.sampled_from([0.0, 0.1, 0.5]),
        p=st.sampled_from([1.0, 3.0]),
        kernel=st.sampled_from(["rbf", "linear"]),
        gamma_m=st.sampled_from([0.0, 1.0, 1e4]),
    )
    def test_same_solution(self, seed, num_blocks, density, p, kernel, gamma_m):
        rng = np.random.default_rng(seed)
        num_labeled, n = 12, 40
        x = rng.normal(size=(n, 3))
        y = np.where(np.arange(num_labeled) % 2 == 0, 1.0, -1.0)
        x[:num_labeled, 0] += 1.5 * y
        blocks = _random_blocks(rng, n, num_blocks, density)
        # the QP is iterated far past the comparison tolerance: at the default
        # smo_tol a 1e-14 difference in Q can end the two runs one SMO step
        # apart, which is a 1e-6 difference in beta
        config = MooConfig(
            gamma_l=0.1, gamma_m=gamma_m, p=p, kernel=kernel, smo_tol=1e-13
        )

        model = MultiObjectiveModel(config)
        model.fit(x[:num_labeled], y, x[num_labeled:], blocks)
        alpha, beta, bias, objectives = dense_fit(
            config, x[:num_labeled], y, x[num_labeled:], blocks
        )

        def close(got, want):
            want = np.asarray(want, dtype=float)
            np.testing.assert_allclose(
                got, want, rtol=1e-9, atol=1e-9 * max(np.abs(want).max(), 1e-300)
            )

        close(model.alpha_, alpha)
        close(model.beta_, beta)
        close(model.bias_, bias)
        close(model.objective_values_, objectives)


# ---------------------------------------------------------------------------
# allocation ceilings: a reintroduced np.zeros((n, n)) fails here, not in
# the benchmark.  numpy reports its array data to tracemalloc.
# ---------------------------------------------------------------------------
def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocationCeilings:
    N = 1500

    def test_fit_holds_at_most_three_square_arrays(self):
        rng = np.random.default_rng(6)
        n, num_labeled = self.N, 40
        block = ConsistencyBlock.from_dense(
            "a", "b", np.arange(n), _random_m(rng, n, 0.003, isolated=100)
        )
        assert 0.002 < block.nonzero_fraction() < 0.005
        x = rng.normal(size=(n, 5))
        y = np.where(np.arange(num_labeled) % 2 == 0, 1.0, -1.0)
        model = MultiObjectiveModel(MooConfig())
        _, peak = _traced_peak(
            lambda: model.fit(x[:num_labeled], y, x[num_labeled:], [block])
        )
        assert peak <= 3.5 * 8 * n * n

    def test_build_allocates_nothing_square(self):
        rng = np.random.default_rng(7)
        world = _random_world(rng, num_accounts=150, num_edges=190)
        pairs, behavior = _random_candidates(rng, 150, per_account=10)
        n = len(pairs)
        assert n == self.N
        builder = StructureConsistencyBuilder(max_hops=2)
        block, peak = _traced_peak(lambda: builder.build(world, pairs, behavior))
        assert 0.002 < block.nonzero_fraction() < 0.005
        # below one n x n array of any dtype wider than a byte
        assert peak < 0.5 * 8 * n * n

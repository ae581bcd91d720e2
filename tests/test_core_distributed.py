"""Tests for the consensus-ADMM distributed optimizer."""

import numpy as np
import pytest

from repro.core import ConsistencyBlock, DistributedLinearHydra, LinearSVM


def _blobs(rng, n=20, sep=1.5):
    x = np.vstack([rng.normal(sep, 0.4, (n, 3)), rng.normal(-sep, 0.4, (n, 3))])
    y = np.array([1.0] * n + [-1.0] * n)
    return x, y


class TestDistributedLinearHydra:
    def test_classifies_separable(self):
        rng = np.random.default_rng(0)
        x, y = _blobs(rng)
        model = DistributedLinearHydra(gamma_l=0.1, gamma_m=0.0, num_workers=4)
        model.fit(x, y, np.zeros((0, 3)))
        assert (model.predict(x) == y).mean() >= 0.95

    def test_consensus_gap_small(self):
        rng = np.random.default_rng(1)
        x, y = _blobs(rng)
        model = DistributedLinearHydra(
            gamma_l=0.1, gamma_m=0.0, num_workers=4, admm_iterations=40
        )
        model.fit(x, y, np.zeros((0, 3)))
        assert model.consensus_gap_ < 0.5

    def test_agrees_with_centralized_direction(self):
        """ADMM consensus should point the same way as the centralized SVM."""
        rng = np.random.default_rng(2)
        x, y = _blobs(rng, sep=2.0)
        distributed = DistributedLinearHydra(gamma_l=0.1, gamma_m=0.0, num_workers=5)
        distributed.fit(x, y, np.zeros((0, 3)))
        central = LinearSVM(gamma_l=0.1, iterations=600).fit(x, y)
        w_dist = distributed.w_[:-1]  # drop bias column
        cosine = w_dist @ central.w_ / (
            np.linalg.norm(w_dist) * np.linalg.norm(central.w_)
        )
        assert cosine > 0.9

    def test_single_worker_equivalent_shape(self):
        rng = np.random.default_rng(3)
        x, y = _blobs(rng, n=10)
        model = DistributedLinearHydra(gamma_l=0.1, num_workers=1)
        model.fit(x, y, np.zeros((0, 3)))
        assert model.w_.shape == (4,)  # 3 features + bias

    def test_more_workers_than_rows(self):
        rng = np.random.default_rng(4)
        x, y = _blobs(rng, n=2)
        model = DistributedLinearHydra(gamma_l=0.1, num_workers=10)
        model.fit(x, y, np.zeros((0, 3)))
        assert model.w_ is not None

    def test_unlabeled_rows_participate(self):
        rng = np.random.default_rng(5)
        x, y = _blobs(rng, n=10)
        x_unlab = rng.normal(0, 1, (8, 3))
        model = DistributedLinearHydra(gamma_l=0.1, gamma_m=1.0, num_workers=3)
        model.fit(x, y, x_unlab)
        assert model.decision_function(x_unlab).shape == (8,)

    def test_rejects_nan(self):
        model = DistributedLinearHydra()
        with pytest.raises(ValueError):
            model.fit(
                np.array([[np.nan, 0.0, 0.0]]), np.array([1.0]), np.zeros((0, 3))
            )

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DistributedLinearHydra().decision_function(np.zeros((1, 3)))

    def test_shard_theta_matches_dense_restriction(self):
        """Block-wise shard assembly equals restricting the dense Laplacian."""
        rng = np.random.default_rng(6)
        n, d = 23, 4
        x_all = rng.normal(size=(n, d + 1))
        blocks = []
        for indices in (np.array([0, 3, 7, 8, 12, 19]),
                        np.array([2, 5, 9, 14, 20, 21, 22])):
            m = rng.uniform(0, 1, (indices.size, indices.size))
            m = 0.5 * (m + m.T)
            blocks.append(ConsistencyBlock.from_dense(
                "a", "b", indices, m, weight=rng.uniform(0.5, 2.0),
            ))
        dense = np.zeros((n, n))
        for block in blocks:
            dense[np.ix_(block.indices, block.indices)] += (
                block.weight * block.laplacian
            )
        model = DistributedLinearHydra(num_workers=4)
        shards = model._make_shards(x_all, np.array([1.0, -1.0]), 2, blocks)
        boundaries = np.linspace(0, n, 5, dtype=int)
        assert len(shards) == 4
        for shard, lo, hi in zip(shards, boundaries[:-1], boundaries[1:]):
            np.testing.assert_allclose(shard.theta, dense[lo:hi, lo:hi])

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DistributedLinearHydra(gamma_l=0.0)
        with pytest.raises(ValueError):
            DistributedLinearHydra(num_workers=0)
        with pytest.raises(ValueError):
            DistributedLinearHydra(rho=0.0)

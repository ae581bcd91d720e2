"""Tests for the multi-objective dual learner (Eqns 11-17)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConsistencyBlock, MooConfig, MultiObjectiveModel


def _blobs(rng, n_pos=15, n_neg=15, sep=1.5, dim=3):
    x_pos = rng.normal(sep, 0.4, (n_pos, dim))
    x_neg = rng.normal(-sep, 0.4, (n_neg, dim))
    x = np.vstack([x_pos, x_neg])
    y = np.array([1.0] * n_pos + [-1.0] * n_neg)
    return x, y


def _chain_block(indices, n):
    """A consistency block linking consecutive rows in ``indices``."""
    size = len(indices)
    m = np.zeros((size, size))
    for i in range(size - 1):
        m[i, i + 1] = m[i + 1, i] = 1.0
    np.fill_diagonal(m, 1.0)
    return ConsistencyBlock.from_dense("a", "b", np.asarray(indices), m)


class TestMooConfig:
    def test_defaults_valid(self):
        config = MooConfig()
        assert config.gamma_l > 0
        assert config.p >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MooConfig(gamma_l=0.0)
        with pytest.raises(ValueError):
            MooConfig(gamma_m=-1.0)
        with pytest.raises(ValueError):
            MooConfig(p=0.5)


class TestSupervisedOnly:
    def test_classifies_separable(self):
        rng = np.random.default_rng(0)
        x, y = _blobs(rng)
        model = MultiObjectiveModel(MooConfig(gamma_l=0.01, gamma_m=0.0))
        model.fit(x, y, np.zeros((0, 3)), [])
        assert (model.predict(x) == y).mean() >= 0.95

    def test_margins_near_one(self):
        rng = np.random.default_rng(1)
        x, y = _blobs(rng, sep=2.5)
        model = MultiObjectiveModel(MooConfig(gamma_l=0.01, gamma_m=0.0))
        model.fit(x, y, np.zeros((0, 3)), [])
        margins = y * model.decision_function(x)
        assert margins.min() > 0.5

    def test_linear_kernel(self):
        rng = np.random.default_rng(2)
        x, y = _blobs(rng)
        model = MultiObjectiveModel(
            MooConfig(gamma_l=0.01, gamma_m=0.0, kernel="linear", kernel_params={})
        )
        model.fit(x, y, np.zeros((0, 3)), [])
        assert (model.predict(x) == y).mean() >= 0.95

    def test_objective_values_populated(self):
        rng = np.random.default_rng(3)
        x, y = _blobs(rng)
        model = MultiObjectiveModel(MooConfig(gamma_l=0.05, gamma_m=0.0))
        model.fit(x, y, np.zeros((0, 3)), [])
        assert len(model.objective_values_) == 1  # F_D only
        assert model.objective_values_[0] >= 0

    def test_qp_result_exposed(self):
        rng = np.random.default_rng(4)
        x, y = _blobs(rng)
        model = MultiObjectiveModel(MooConfig(gamma_l=0.05, gamma_m=0.0))
        model.fit(x, y, np.zeros((0, 3)), [])
        assert model.qp_result_ is not None
        assert 0 < model.qp_result_.support_fraction <= 1.0


class TestSemiSupervised:
    def test_structure_propagates_to_unlabeled(self):
        """Chain-linked unlabeled points inherit their labeled neighbor's score."""
        rng = np.random.default_rng(5)
        x_lab, y = _blobs(rng, n_pos=8, n_neg=8)
        # unlabeled points near the positive cluster, chained to labeled row 0
        x_unlab = rng.normal(1.5, 0.4, (4, 3))
        block = _chain_block([0, 16, 17, 18, 19], n=20)
        model = MultiObjectiveModel(MooConfig(gamma_l=0.01, gamma_m=50.0))
        model.fit(x_lab, y, x_unlab, [block])
        scores = model.decision_function(x_unlab)
        assert (scores > 0).mean() >= 0.75

    def test_gamma_m_zero_ignores_blocks(self):
        rng = np.random.default_rng(6)
        x_lab, y = _blobs(rng, n_pos=6, n_neg=6)
        x_unlab = rng.normal(0, 1, (3, 3))
        block = _chain_block([0, 12, 13, 14], n=15)
        with_blocks = MultiObjectiveModel(MooConfig(gamma_l=0.01, gamma_m=0.0))
        with_blocks.fit(x_lab, y, x_unlab, [block])
        without = MultiObjectiveModel(MooConfig(gamma_l=0.01, gamma_m=0.0))
        without.fit(x_lab, y, x_unlab, [])
        np.testing.assert_allclose(
            with_blocks.decision_function(x_lab),
            without.decision_function(x_lab),
            rtol=1e-6,
        )

    def test_objective_values_per_block(self):
        rng = np.random.default_rng(7)
        x_lab, y = _blobs(rng, n_pos=6, n_neg=6)
        x_unlab = rng.normal(0, 1, (4, 3))
        blocks = [_chain_block([0, 12, 13], 16), _chain_block([1, 14, 15], 16)]
        model = MultiObjectiveModel(MooConfig(gamma_l=0.01, gamma_m=10.0))
        model.fit(x_lab, y, x_unlab, blocks)
        assert len(model.objective_values_) == 3  # F_D + 2 structure blocks


class TestUtilityExponent:
    def test_p_greater_one_runs_reweighting(self):
        rng = np.random.default_rng(8)
        x_lab, y = _blobs(rng, n_pos=8, n_neg=8)
        x_unlab = rng.normal(0, 1, (4, 3))
        block = _chain_block([0, 16, 17], 20)
        model = MultiObjectiveModel(MooConfig(gamma_l=0.01, gamma_m=10.0, p=3.0))
        model.fit(x_lab, y, x_unlab, [block])
        assert (model.predict(x_lab) == y).mean() >= 0.9

    def test_different_p_changes_solution(self):
        rng = np.random.default_rng(9)
        x_lab, y = _blobs(rng, n_pos=8, n_neg=8, sep=0.8)
        x_unlab = rng.normal(0, 1.2, (6, 3))
        block = _chain_block([0, 16, 17, 18], 22)

        def fit_with(p):
            model = MultiObjectiveModel(
                MooConfig(gamma_l=0.01, gamma_m=200.0, p=p)
            )
            model.fit(x_lab, y, x_unlab, [block])
            return model.decision_function(x_unlab)

        assert not np.allclose(fit_with(1.0), fit_with(4.0))


class TestValidation:
    def test_rejects_nan_features(self):
        model = MultiObjectiveModel()
        with pytest.raises(ValueError):
            model.fit(
                np.array([[np.nan, 1.0], [0.0, 1.0]]),
                np.array([1.0, -1.0]),
                np.zeros((0, 2)),
            )

    def test_rejects_single_class(self):
        model = MultiObjectiveModel()
        with pytest.raises(ValueError):
            model.fit(np.zeros((2, 2)), np.array([1.0, 1.0]), np.zeros((0, 2)))

    def test_rejects_bad_block_indices(self):
        model = MultiObjectiveModel()
        block = _chain_block([0, 99], 100)
        with pytest.raises(ValueError):
            model.fit(
                np.zeros((2, 2)), np.array([1.0, -1.0]), np.zeros((0, 2)), [block]
            )

    def test_rejects_empty_labeled(self):
        model = MultiObjectiveModel()
        with pytest.raises(ValueError):
            model.fit(np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MultiObjectiveModel().decision_function(np.zeros((1, 2)))


def _expansion(kernel, seed, n_train, dim):
    """A model with a random kernel expansion (the state an artifact load
    assigns), non-negative rows so every kernel applies."""
    rng = np.random.default_rng(seed)
    model = MultiObjectiveModel(MooConfig(kernel=kernel, kernel_params={"gamma": 0.7}))
    model.x_train_ = rng.random((n_train, dim))
    model.alpha_ = rng.normal(size=n_train)
    model.bias_ = float(rng.normal())
    return model, rng


class TestRowStableDecision:
    """``decision_function(x)[i] == decision_function(x[[i]])[0]`` bitwise."""

    @settings(max_examples=30, deadline=None)
    @given(
        kernel=st.sampled_from(["rbf", "linear", "chi_square"]),
        seed=st.integers(0, 2**32 - 1),
        n_train=st.integers(64, 400),
        dim=st.integers(4, 40),
        rows=st.integers(2, 60),
        cuts=st.lists(st.integers(1, 59), max_size=5),
    )
    def test_rows_are_independent_of_their_batch(
        self, kernel, seed, n_train, dim, rows, cuts
    ):
        model, rng = _expansion(kernel, seed, n_train, dim)
        x = rng.random((rows, dim))
        whole = model.decision_function(x)

        single = np.array([model.decision_function(x[[i]])[0] for i in range(rows)])
        assert np.array_equal(whole, single)

        perm = rng.permutation(rows)
        permuted = np.empty(rows)
        permuted[perm] = model.decision_function(x[perm])
        assert np.array_equal(whole, permuted)

        bounds = [0, *sorted({c for c in cuts if c < rows}), rows]
        chunked = np.concatenate(
            [model.decision_function(x[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        )
        assert np.array_equal(whole, chunked)

    @pytest.mark.parametrize("kernel", ["rbf", "linear", "chi_square"])
    def test_matches_the_gram_expansion(self, kernel):
        model, rng = _expansion(kernel, 3, 120, 9)
        x = rng.random((17, 9))
        gram = model._kernel(x, model.x_train_)
        np.testing.assert_allclose(
            model.decision_function(x), gram @ model.alpha_ + model.bias_,
            rtol=1e-12, atol=1e-12,
        )

    def test_row_kernel_cache_stays_out_of_pickles(self):
        model, rng = _expansion("rbf", 5, 80, 6)
        before = pickle.dumps(model)
        model.decision_function(rng.random((4, 6)))
        assert pickle.dumps(model) == before

    def test_reassigned_training_rows_rebuild_the_row_kernel(self):
        model, rng = _expansion("rbf", 7, 80, 6)
        x = rng.random((3, 6))
        model.decision_function(x)
        model.x_train_ = model.x_train_ * 0.5
        fresh = pickle.loads(pickle.dumps(model))
        assert np.array_equal(model.decision_function(x), fresh.decision_function(x))

    def test_chi_square_rejects_negative_queries(self):
        model, _ = _expansion("chi_square", 9, 70, 5)
        with pytest.raises(ValueError):
            model.decision_function(-np.ones((1, 5)))

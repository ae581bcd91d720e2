"""Tests for the feature pipeline and missing-data fillers (on a real world)."""

import numpy as np
import pytest

from repro.features import CoreStructureFiller, ZeroFiller, style_similarity
from repro.text.style import UserStyle


class TestStyleSimilarity:
    def test_full_match(self):
        a = UserStyle(signatures={1: ("x",), 3: ("x", "y", "z")})
        vec = style_similarity(a, a)
        np.testing.assert_allclose(vec, [1.0, 1.0])

    def test_partial_match(self):
        a = UserStyle(signatures={3: ("x", "y", "z")})
        b = UserStyle(signatures={3: ("x", "q", "r")})
        assert style_similarity(a, b)[0] == pytest.approx(1.0 / 3.0)

    def test_empty_signature_nan(self):
        a = UserStyle(signatures={1: ()})
        b = UserStyle(signatures={1: ("x",)})
        assert np.isnan(style_similarity(a, b)[0])

    def test_no_common_levels(self):
        a = UserStyle(signatures={1: ("x",)})
        b = UserStyle(signatures={5: ("x",)})
        with pytest.raises(ValueError):
            style_similarity(a, b)


class TestFeaturePipeline:
    def test_dim_and_names(self, fitted_pipeline):
        assert fitted_pipeline.dim == len(fitted_pipeline.feature_names)
        names = fitted_pipeline.feature_names
        assert names[0].startswith("attr:")
        assert "username_sim" in names
        assert "face_score" in names
        assert any(n.startswith("genre@") for n in names)
        assert any(n.startswith("sentiment@") for n in names)
        assert any(n.startswith("style@") for n in names)
        assert any(n.startswith("checkin@") for n in names)
        assert any(n.startswith("media@") for n in names)

    def test_vector_shape_and_bounds(self, fitted_pipeline, true_refs):
        vec = fitted_pipeline.pair_vector(*true_refs[0])
        assert vec.shape == (fitted_pipeline.dim,)
        finite = vec[~np.isnan(vec)]
        assert (finite >= -1e-9).all()
        assert (finite <= 1.0 + 1e-9).all()

    def test_true_pairs_score_higher_on_average(self, fitted_pipeline, true_refs):
        true_vecs = fitted_pipeline.matrix(true_refs[:10])
        false_pairs = [
            (true_refs[i][0], true_refs[(i + 3) % len(true_refs)][1])
            for i in range(10)
        ]
        false_vecs = fitted_pipeline.matrix(false_pairs)
        # behavior dimensions (beyond attributes) should separate in the mean
        true_mean = np.nanmean(true_vecs)
        false_mean = np.nanmean(false_vecs)
        assert true_mean > false_mean

    def test_matrix_rows_match_pairs(self, fitted_pipeline, true_refs):
        x = fitted_pipeline.matrix(true_refs[:3])
        assert x.shape == (3, fitted_pipeline.dim)
        single = fitted_pipeline.pair_vector(*true_refs[1])
        np.testing.assert_allclose(x[1], single, equal_nan=True)

    def test_featurize_result(self, fitted_pipeline, true_refs):
        result = fitted_pipeline.featurize(*true_refs[0])
        assert result.pair == true_refs[0]
        assert result.names == fitted_pipeline.feature_names
        assert result.missing_mask().shape == result.vector.shape

    def test_behavior_summary(self, fitted_pipeline, true_refs):
        summary = fitted_pipeline.behavior_summary(true_refs[0][0])
        assert summary.ndim == 1
        assert summary.shape[0] > 10  # topics + sentiment + volumes

    def test_unfitted_raises(self):
        from repro.features import FeaturePipeline
        pipe = FeaturePipeline()
        with pytest.raises(RuntimeError):
            _ = pipe.feature_names
        with pytest.raises(RuntimeError):
            pipe.pair_vector(("a", "x"), ("b", "y"))

    def test_empty_matrix(self, fitted_pipeline):
        assert fitted_pipeline.matrix([]).shape == (0, fitted_pipeline.dim)


class TestZeroFiller:
    def test_nan_replaced(self):
        matrix = np.array([[1.0, np.nan], [np.nan, 0.5]])
        filled = ZeroFiller().fill_matrix([], matrix)
        assert not np.isnan(filled).any()
        assert filled[0, 1] == 0.0
        assert filled[0, 0] == 1.0


class TestCoreStructureFiller:
    def test_fills_from_friends(self, small_world, fitted_pipeline, true_refs):
        filler = CoreStructureFiller(small_world, fitted_pipeline)
        pair = true_refs[0]
        raw = fitted_pipeline.pair_vector(*pair)
        filled = filler.fill_vector(pair[0], pair[1], raw)
        assert not np.isnan(filled).any()
        # non-missing dimensions must be untouched
        keep = ~np.isnan(raw)
        np.testing.assert_allclose(filled[keep], raw[keep])

    def test_fill_matrix_shape_contract(self, small_world, fitted_pipeline, true_refs):
        filler = CoreStructureFiller(small_world, fitted_pipeline)
        pairs = true_refs[:3]
        matrix = fitted_pipeline.matrix(pairs)
        filled = filler.fill_matrix(pairs, matrix)
        assert filled.shape == matrix.shape
        assert not np.isnan(filled).any()
        with pytest.raises(ValueError):
            filler.fill_matrix(pairs[:2], matrix)

    def test_friend_average_informative(self, small_world, fitted_pipeline, true_refs):
        """Eqn 18: for true pairs, friends' cross-similarity beats random fill."""
        filler = CoreStructureFiller(small_world, fitted_pipeline)
        true_fill = filler.friend_pair_average(*true_refs[0])
        assert np.isfinite(true_fill).any()

    def test_cache_reused(self, small_world, fitted_pipeline, true_refs):
        filler = CoreStructureFiller(small_world, fitted_pipeline)
        filler.friend_pair_average(*true_refs[0])
        first_size = len(filler._vector_cache)
        filler.friend_pair_average(*true_refs[0])
        assert len(filler._vector_cache) == first_size  # no recompute

    def test_top_k_validation(self, small_world, fitted_pipeline):
        with pytest.raises(ValueError):
            CoreStructureFiller(small_world, fitted_pipeline, top_k=0)
        with pytest.raises(ValueError):
            CoreStructureFiller(small_world, fitted_pipeline, cache_limit=0)

    def test_unpickles_pre_batch_engine_state(
        self, small_world, fitted_pipeline, true_refs
    ):
        """Fillers pickled before the batch engine existed must still fill."""
        filler = CoreStructureFiller(small_world, fitted_pipeline)
        state = dict(filler.__dict__)
        for attr in (
            "_matrix", "_friend_cache", "_average_cache", "cache_limit",
        ):
            state.pop(attr, None)
        old = CoreStructureFiller.__new__(CoreStructureFiller)
        old.__setstate__(state)
        assert old._matrix is not None  # re-derived from the pipeline
        pairs = true_refs[:3]
        matrix = fitted_pipeline.matrix(pairs)
        expected = filler.fill_matrix(pairs, matrix)
        np.testing.assert_array_equal(old.fill_matrix(pairs, matrix), expected)

    def test_cache_limit_bounds_memos(self, small_world, fitted_pipeline, true_refs):
        filler = CoreStructureFiller(
            small_world, fitted_pipeline, cache_limit=4
        )
        matrix = fitted_pipeline.matrix(true_refs)
        filler.fill_matrix(true_refs, matrix)
        assert len(filler._vector_cache) <= 4
        assert len(filler._average_cache) <= 4

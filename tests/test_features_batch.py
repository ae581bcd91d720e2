"""Batch featurization engine: bit-for-bit parity with the reference path.

The batch engine's contract is exact equality — not allclose — with stacked
``pair_vector`` calls, including NaN positions.  These tests exercise that
contract on the shared session world, on freshly fitted randomized worlds
(both bucket kernels, different pooling orders), and through pickling, plus
the exactness property of the grouped segment-mean primitive the engine's
reductions rely on.
"""

import pickle

import numpy as np
import pytest

from repro.datagen import WorldConfig, generate_world
from repro.features import FeaturePipeline, segment_means


def _assert_bit_identical(reference: np.ndarray, batch: np.ndarray) -> None:
    """Equality including NaN positions, then bitwise on the finite entries."""
    assert reference.shape == batch.shape
    ref_nan = np.isnan(reference)
    assert (ref_nan == np.isnan(batch)).all(), "NaN positions differ"
    assert np.array_equal(reference, batch, equal_nan=True)
    # belt and braces: identical bit patterns outside the NaN positions
    assert (
        np.where(ref_nan, 0.0, reference).tobytes()
        == np.where(ref_nan, 0.0, batch).tobytes()
    )


def _reference(pipeline, pairs) -> np.ndarray:
    """The per-pair path: stacked ``pair_vector`` rows."""
    return np.vstack([pipeline.pair_vector(a, b) for a, b in pairs])


def _mixed_pairs(pipeline, seed: int, extra: int = 250) -> list:
    """True pairs plus random cross-platform pairs (mostly non-matching)."""
    refs = sorted(pipeline._cache)
    by_platform: dict[str, list] = {}
    for ref in refs:
        by_platform.setdefault(ref[0], []).append(ref)
    names = sorted(by_platform)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(extra):
        a, b = rng.choice(len(names), size=2, replace=False)
        left = by_platform[names[a]][rng.integers(len(by_platform[names[a]]))]
        right = by_platform[names[b]][rng.integers(len(by_platform[names[b]]))]
        pairs.append((left, right))
    return pairs


class TestBatchParity:
    def test_session_world_parity(self, fitted_pipeline, true_refs):
        pairs = true_refs + _mixed_pairs(fitted_pipeline, seed=1)
        _assert_bit_identical(
            _reference(fitted_pipeline, pairs), fitted_pipeline.matrix(pairs)
        )

    @pytest.mark.parametrize(
        "seed,persons,kernel,q",
        [
            (101, 14, "chi_square", 3.0),
            (202, 12, "histogram_intersection", 1.0),
        ],
    )
    def test_randomized_world_parity(self, seed, persons, kernel, q):
        world = generate_world(WorldConfig(num_persons=persons, seed=seed))
        true = [
            (("facebook", a), ("twitter", b))
            for a, b in world.true_pairs("facebook", "twitter")
        ]
        pipeline = FeaturePipeline(
            num_topics=6,
            max_lda_docs=800,
            topic_kernel=kernel,
            sensor_q=q,
            seed=seed,
        )
        pipeline.fit(world, true[:4], [(true[0][0], true[1][1])])
        pairs = true + _mixed_pairs(pipeline, seed=seed, extra=150)
        _assert_bit_identical(_reference(pipeline, pairs), pipeline.matrix(pairs))

    def test_single_pair_matches_pair_vector(self, fitted_pipeline, true_refs):
        pair = true_refs[0]
        vector = fitted_pipeline.pair_vector(*pair)
        _assert_bit_identical(
            vector[None, :], fitted_pipeline.matrix([pair])
        )

    def test_featurizer_survives_pickle(self, fitted_pipeline, true_refs):
        featurizer = pickle.loads(pickle.dumps(fitted_pipeline.batch_featurizer))
        pairs = true_refs[:8]
        _assert_bit_identical(
            fitted_pipeline.matrix(pairs),
            featurizer.matrix(pairs),
        )


class TestEngineSelection:
    def test_unknown_ref_raises_keyerror_on_both_paths(self, fitted_pipeline):
        ghost = [(("facebook", "no_such"), ("twitter", "nobody"))]
        with pytest.raises(KeyError):
            fitted_pipeline.matrix(ghost)
        with pytest.raises(KeyError):
            _reference(fitted_pipeline, ghost)

    def test_empty_batch(self, fitted_pipeline):
        assert fitted_pipeline.matrix([]).shape == (
            0,
            fitted_pipeline.dim,
        )

    def test_packed_store_shape(self, fitted_pipeline):
        store = fitted_pipeline.packed_store
        assert store.num_accounts == len(fitted_pipeline._cache)
        assert fitted_pipeline.batch_featurizer.dim == fitted_pipeline.dim
        assert store.summaries.shape[0] == store.num_accounts

    def test_unfitted_pipeline_has_no_engine(self):
        pipeline = FeaturePipeline()
        with pytest.raises(RuntimeError):
            _ = pipeline.packed_store
        with pytest.raises(RuntimeError):
            _ = pipeline.batch_featurizer
        with pytest.raises(RuntimeError):
            pipeline.ensure_packed()


class TestStoreSubset:
    def test_subset_parity_with_full_store(self, fitted_pipeline, true_refs):
        """A sliced store featurizes its pairs bit-identically to the full one."""
        from repro.features.batch import BatchFeaturizer

        pairs = true_refs[:10] + _mixed_pairs(fitted_pipeline, seed=3, extra=40)
        refs = sorted({ref for pair in pairs for ref in pair})
        full = fitted_pipeline.batch_featurizer
        sliced = BatchFeaturizer(
            full.store.subset(refs),
            importance_scale=full.importance_scale,
            face=full.face,
            topic_kernel=full.topic_kernel,
            sensors=full.sensors,
            sensor_q=full.sensor_q,
            sensor_lam=full.sensor_lam,
        )
        _assert_bit_identical(full.matrix(pairs), sliced.matrix(pairs))

    def test_subset_compacts_payloads(self, fitted_pipeline, true_refs):
        store = fitted_pipeline.packed_store
        refs = sorted({ref for pair in true_refs[:4] for ref in pair})
        sliced = store.subset(refs)
        assert sliced.num_accounts == len(refs)
        assert sliced.refs == refs
        for kind in store.sensor_kinds:
            assert len(sliced.payloads[kind]) <= len(store.payloads[kind])
            # windows must re-base onto the compacted payload exactly
            for scale in store.sensor_scales:
                csr = sliced.windows[(kind, scale)]
                if csr.win_end.size:
                    assert csr.win_end.max() <= len(sliced.payloads[kind])

    def test_subset_rejects_unknown_and_duplicate_refs(self, fitted_pipeline):
        store = fitted_pipeline.packed_store
        with pytest.raises(KeyError):
            store.subset([("facebook", "nobody")])
        ref = store.refs[0]
        with pytest.raises(ValueError):
            store.subset([ref, ref])

    def test_empty_subset(self, fitted_pipeline):
        sliced = fitted_pipeline.packed_store.subset([])
        assert sliced.num_accounts == 0


class TestSegmentMeans:
    def test_matches_per_segment_numpy_mean_bitwise(self):
        rng = np.random.default_rng(7)
        # lengths exercise every reduction regime: empty, scalar, short
        # (sequential), and long (pairwise-blocked) segments
        lengths = np.array(
            [0, 1, 2, 3, 7, 8, 9, 0, 63, 129, 500, 1, 1000, 4, 0]
        )
        values = rng.uniform(-5.0, 5.0, size=int(lengths.sum()))
        got = segment_means(values, lengths)
        offset = 0
        for i, length in enumerate(lengths):
            if length == 0:
                assert np.isnan(got[i])
            else:
                expected = values[offset: offset + length].mean()
                assert got[i] == expected  # bit-for-bit
            offset += length

    def test_empty_input(self):
        assert segment_means(np.zeros(0), np.zeros(0, dtype=int)).shape == (0,)

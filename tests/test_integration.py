"""Cross-module integration tests: the full pipeline on varied worlds."""

import numpy as np
import pytest

from repro.core import HydraLinker
from repro.datagen import WorldConfig, chinese_platform_specs, generate_world
from repro.eval import ExperimentHarness, default_method_factories
from repro.features.pipeline import FeaturePipeline


class TestMultiPlatform:
    @pytest.fixture(scope="class")
    def chinese_small(self):
        config = WorldConfig(
            num_persons=15, platforms=chinese_platform_specs()[:3], seed=23
        )
        return generate_world(config)

    def test_three_platform_joint_fit(self, chinese_small):
        world = chinese_small
        names = world.platform_names()
        pairs = [(names[0], names[1]), (names[1], names[2])]
        pos, neg = [], []
        for pa, pb in pairs:
            true = world.true_pairs(pa, pb)
            pos.extend([((pa, a), (pb, b)) for a, b in true[:4]])
            neg.extend(
                [((pa, true[i][0]), (pb, true[(i + 2) % len(true)][1]))
                 for i in range(4)]
            )
        linker = HydraLinker(seed=29, num_topics=8, max_lda_docs=1000)
        linker.fit(world, pos, neg, pairs)
        # one consistency block per platform pair with enough candidates
        assert 1 <= len(linker.blocks_) <= len(pairs)
        for pa, pb in pairs:
            result = linker.linkage(pa, pb)
            assert len(result.pairs) > 0

    def test_block_indices_disjoint(self, chinese_small):
        world = chinese_small
        names = world.platform_names()
        pairs = [(names[0], names[1]), (names[0], names[2])]
        true01 = world.true_pairs(names[0], names[1])
        pos = [((names[0], a), (names[1], b)) for a, b in true01[:4]]
        neg = [
            ((names[0], true01[i][0]), (names[1], true01[(i + 1) % len(true01)][1]))
            for i in range(4)
        ]
        linker = HydraLinker(seed=31, num_topics=8, max_lda_docs=1000)
        linker.fit(world, pos, neg, pairs)
        seen: set[int] = set()
        for block in linker.blocks_:
            indices = set(int(i) for i in block.indices)
            assert not (indices & seen)
            seen |= indices


class TestMissingDataRobustness:
    def test_hydra_handles_heavy_missingness(self):
        """A world with aggressive hiding must still fit and link."""
        config = WorldConfig(
            num_persons=20,
            seed=37,
            username_overlap_probability=0.5,
        )
        config.missingness.email_hidden_probability = 0.95
        config.missingness.image_missing_probability = 0.7
        world = generate_world(config)
        true = world.true_pairs("facebook", "twitter")
        pos = [(("facebook", a), ("twitter", b)) for a, b in true[:5]]
        neg = [
            (("facebook", true[i][0]), ("twitter", true[(i + 2) % len(true)][1]))
            for i in range(5)
        ]
        linker = HydraLinker(seed=41, num_topics=8, max_lda_docs=800)
        linker.fit(world, pos, neg)
        result = linker.linkage("facebook", "twitter")
        true_set = {(("facebook", a), ("twitter", b)) for a, b in true}
        linked_eval = [p for p in result.linked if p not in set(pos)]
        if linked_eval:
            tp = sum(1 for p in linked_eval if p in true_set)
            assert tp / len(linked_eval) >= 0.5

    def test_no_missingness_world(self):
        config = WorldConfig(num_persons=15, seed=43, apply_missingness=False)
        world = generate_world(config)
        pipe = FeaturePipeline(num_topics=8, max_lda_docs=800, seed=43)
        true = world.true_pairs("facebook", "twitter")
        pos = [(("facebook", a), ("twitter", b)) for a, b in true[:4]]
        neg = [
            (("facebook", true[i][0]), ("twitter", true[(i + 1) % len(true)][1]))
            for i in range(4)
        ]
        pipe.fit(world, pos, neg)
        x = pipe.matrix(pos)
        # attribute dims can never be NaN when nothing is hidden
        attr_dims = [i for i, n in enumerate(pipe.feature_names)
                     if n.startswith("attr:") and n != "attr:email"]
        assert not np.isnan(x[:, attr_dims]).any()


class TestHarnessEndToEnd:
    def test_full_suite_ordering(self, small_world):
        """The paper's headline ordering: HYDRA >= SVM-B >= username baselines."""
        harness = ExperimentHarness(small_world, seed=47)
        factories = default_method_factories(
            seed=47, include=("HYDRA-M", "SVM-B", "MOBIUS")
        )
        results = {r.method: r for r in harness.run_suite(factories)}
        assert results["HYDRA-M"].metrics.f1 >= results["MOBIUS"].metrics.f1
        assert results["SVM-B"].metrics.f1 >= results["MOBIUS"].metrics.f1


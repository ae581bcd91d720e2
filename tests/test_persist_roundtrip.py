"""Artifact round-tripping: save() -> load() -> identical decision values."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import HydraLinker
from repro.persist import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    ArtifactError,
    artifact_summary,
    load_linker,
    save_linker,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module", params=["core", "zero"])
def saved(request, small_world, labeled_split, tmp_path_factory):
    """A fitted linker per missing strategy plus its saved artifact."""
    positives, negatives = labeled_split
    linker = HydraLinker(
        missing_strategy=request.param, seed=17, num_topics=8, max_lda_docs=1500
    )
    linker.fit(small_world, positives, negatives)
    path = tmp_path_factory.mktemp(f"artifact-{request.param}") / "linker"
    save_linker(linker, path)
    return linker, path


def _assert_blocks_equal(original, reloaded):
    assert (original.platform_a, original.platform_b, original.weight) == (
        reloaded.platform_a, reloaded.platform_b, reloaded.weight,
    )
    for name in ("indices", "indptr", "cols", "values", "affinity", "degree"):
        assert np.array_equal(getattr(original, name), getattr(reloaded, name))


class TestRoundTrip:
    def test_layout(self, saved):
        _, path = saved
        assert sorted(p.name for p in path.iterdir()) == [
            "arrays.npz", "manifest.json",
        ]
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["format"] == ARTIFACT_FORMAT
        assert manifest["version"] == ARTIFACT_VERSION == 2
        with np.load(path / "arrays.npz") as arrays:
            names = set(arrays.files)
        # blocks travel as their sparse arrays, never as dense n x n
        assert {
            f"block_0_{name}"
            for name in ("indices", "indptr", "cols", "values", "affinity", "degree")
        } <= names
        assert not {"block_0_m", "block_0_d"} & names

    def test_scores_bit_identical(self, saved, true_refs):
        linker, path = saved
        loaded = load_linker(path)
        original = linker.score_pairs(true_refs)
        reloaded = loaded.score_pairs(true_refs)
        assert np.array_equal(original, reloaded)  # bit-for-bit, not allclose

    def test_candidate_scores_bit_identical(self, saved):
        linker, path = saved
        loaded = HydraLinker.load(path)
        pairs = linker.candidates_[("facebook", "twitter")].pairs
        assert np.array_equal(
            linker.score_pairs(pairs), loaded.score_pairs(pairs)
        )

    def test_linkage_decisions_identical(self, saved):
        linker, path = saved
        loaded = load_linker(path)
        original = linker.linkage("facebook", "twitter")
        reloaded = loaded.linkage("facebook", "twitter")
        assert original.linked == reloaded.linked
        assert np.array_equal(original.linked_scores, reloaded.linked_scores)

    def test_fitted_state_restored(self, saved):
        linker, path = saved
        loaded = load_linker(path)
        assert loaded.missing_strategy == linker.missing_strategy
        assert loaded.num_labeled_ == linker.num_labeled_
        assert loaded.global_pairs_ == linker.global_pairs_
        assert loaded.platform_pairs_ == linker.platform_pairs_
        assert len(loaded.blocks_) == len(linker.blocks_)
        for original, reloaded in zip(linker.blocks_, loaded.blocks_):
            _assert_blocks_equal(original, reloaded)
        assert loaded.sparsity_report() == linker.sparsity_report()

    def test_version_1_artifact_still_loads(self, saved, true_refs, tmp_path):
        """Dense ``block_i_m`` / ``block_i_d`` artifacts convert on load."""
        linker, path = saved
        old = tmp_path / "version-1"
        old.mkdir()
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 1
        # older artifacts also carry the since-dropped one_to_one flag
        manifest["config"]["one_to_one"] = True
        (old / "manifest.json").write_text(json.dumps(manifest))
        with np.load(path / "arrays.npz") as arrays:
            kept = {
                name: arrays[name] for name in arrays.files
                if not name.startswith("block_")
            }
        for i, block in enumerate(linker.blocks_):
            kept[f"block_{i}_m"] = block.m
            kept[f"block_{i}_d"] = block.d
            kept[f"block_{i}_indices"] = block.indices
        np.savez_compressed(old / "arrays.npz", **kept)

        loaded = load_linker(old)
        assert len(loaded.blocks_) == len(linker.blocks_) >= 1
        for original, reloaded in zip(linker.blocks_, loaded.blocks_):
            _assert_blocks_equal(original, reloaded)
        assert np.array_equal(
            linker.score_pairs(true_refs), loaded.score_pairs(true_refs)
        )
        assert loaded.sparsity_report() == linker.sparsity_report()
        assert (
            loaded.linkage("facebook", "twitter").linked
            == linker.linkage("facebook", "twitter").linked
        )

    def test_sparsity_report_counts_what_the_dense_m_holds(self, saved):
        linker, _ = saved
        dense = [
            np.count_nonzero(block.m) / block.m.size for block in linker.blocks_
        ]
        assert linker.sparsity_report()["consistency_nonzero_fraction"] == float(
            np.mean(dense)
        )

    def test_packed_store_round_trips(self, saved):
        """The batch engine's packed store reloads — no re-packing on load."""
        linker, path = saved
        manifest = json.loads((path / "manifest.json").read_text())
        packed_meta = manifest["packed_store"]
        original = linker.pipeline.packed_store
        assert packed_meta["num_accounts"] == original.num_accounts

        loaded = load_linker(path)
        reloaded = loaded.pipeline.packed_store
        assert reloaded is not original  # a genuine reload, not shared state
        assert reloaded.refs == original.refs
        assert reloaded.row_of == original.row_of
        assert np.array_equal(reloaded.eq_codes, original.eq_codes)
        assert np.array_equal(reloaded.summaries, original.summaries)
        for got, expected in zip(reloaded.topic_means, original.topic_means):
            assert np.array_equal(got, expected)
        for key, csr in original.windows.items():
            assert np.array_equal(reloaded.windows[key].win_ids, csr.win_ids)

    def test_loaded_service_scores_without_repacking(
        self, saved, true_refs, monkeypatch
    ):
        """Scoring from a loaded artifact never rebuilds the packed store."""
        from repro.features.batch import PackedAccountStore

        _, path = saved
        loaded = load_linker(path)  # ensure_packed ran here (a no-op)

        def _fail(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("packed store was rebuilt after load")

        monkeypatch.setattr(PackedAccountStore, "pack", _fail)
        scores = loaded.score_pairs(true_refs[:4])
        assert scores.shape == (4,)

    def test_fresh_process_serves_identical_scores(self, saved, true_refs, tmp_path):
        """The acceptance-criterion path: reload in a *fresh* interpreter."""
        linker, path = saved
        expected = linker.score_pairs(true_refs[:6])
        out_path = tmp_path / "scores.npy"
        script = (
            "import sys, json, numpy as np\n"
            "from repro.core import HydraLinker\n"
            "linker = HydraLinker.load(sys.argv[1])\n"
            "pairs = [tuple(map(tuple, p)) for p in json.loads(sys.argv[3])]\n"
            "np.save(sys.argv[2], linker.score_pairs(pairs))\n"
        )
        pairs_json = json.dumps([[list(a), list(b)] for a, b in true_refs[:6]])
        subprocess.run(
            [sys.executable, "-c", script, str(path), str(out_path), pairs_json],
            check=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert np.array_equal(expected, np.load(out_path))


class TestArtifactValidation:
    def test_unfitted_linker_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            save_linker(HydraLinker(), tmp_path / "nope")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_linker(tmp_path)

    def test_wrong_format_rejected(self, saved, tmp_path):
        _, path = saved
        bad = tmp_path / "bad-format"
        bad.mkdir()
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format"] = "mystery-model"
        (bad / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="format"):
            load_linker(bad)

    def test_future_version_rejected(self, saved, tmp_path):
        _, path = saved
        bad = tmp_path / "bad-version"
        bad.mkdir()
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = ARTIFACT_VERSION + 1
        (bad / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="version"):
            load_linker(bad)

    def test_missing_arrays_rejected(self, saved, tmp_path):
        _, path = saved
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "manifest.json").write_text(
            (path / "manifest.json").read_text()
        )
        with pytest.raises(ArtifactError, match="arrays"):
            load_linker(partial)

    def test_subclass_load_preserves_class(self, saved):
        _, path = saved

        class CustomLinker(HydraLinker):
            pass

        loaded = CustomLinker.load(path)
        assert type(loaded) is CustomLinker
        assert type(HydraLinker.load(path)) is HydraLinker

    def test_release_skew_warns(self, saved, tmp_path):
        """Pickled state tracks library code — loading across releases warns."""
        import shutil

        _, path = saved
        skewed = tmp_path / "skewed"
        shutil.copytree(path, skewed)
        manifest = json.loads((skewed / "manifest.json").read_text())
        manifest["repro_version"] = "0.0.1"
        (skewed / "manifest.json").write_text(json.dumps(manifest))
        with pytest.warns(UserWarning, match="written by repro 0.0.1"):
            load_linker(skewed)

    def test_summary_reads_without_arrays(self, saved):
        linker, path = saved
        summary = artifact_summary(path)
        assert summary["num_candidates"] == len(linker.global_pairs_)
        assert summary["missing_strategy"] == linker.missing_strategy
        assert summary["platform_pairs"] == [("facebook", "twitter")]

"""Tests for the spectral linker, the tuning grid search, and the CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core import SpectralLinker
from repro.eval import TuningGrid, tune_feature_parameters


class TestSpectralLinker:
    @pytest.fixture(scope="class")
    def fitted(self, small_world):
        linker = SpectralLinker(seed=3, num_topics=8, max_lda_docs=1200)
        linker.fit(small_world)  # fully unsupervised
        return linker

    def test_unsupervised_fit(self, fitted):
        key = ("facebook", "twitter")
        assert key in fitted.scores_
        assert fitted.eigenvalues_[key] > 0.0

    def test_eigenvector_scores_nonnegative(self, fitted):
        scores = fitted.scores_[("facebook", "twitter")]
        assert (scores >= -1e-8).all()  # Perron-Frobenius on non-negative M

    def test_linkage_better_than_random(self, fitted, small_world, true_refs):
        result = fitted.linkage("facebook", "twitter")
        if not result.linked:
            pytest.skip("eigenvector concentrated away from threshold")
        true_set = set(true_refs)
        tp = sum(1 for p in result.linked if p in true_set)
        precision = tp / len(result.linked)
        # random assignment precision would be ~1/30; structure alone must
        # concentrate on the agreement cluster
        assert precision > 0.2

    def test_one_to_one(self, fitted):
        result = fitted.linkage("facebook", "twitter")
        lefts = [a for a, _ in result.linked]
        assert len(lefts) == len(set(lefts))

    def test_orientation_flip(self, fitted):
        fwd = fitted.linkage("facebook", "twitter")
        back = fitted.linkage("twitter", "facebook")
        assert {(b, a) for a, b in back.linked} == set(fwd.linked)

    def test_score_pairs_lookup(self, fitted, true_refs):
        scores = fitted.score_pairs(true_refs[:5])
        assert scores.shape == (5,)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            SpectralLinker().linkage("a", "b")

    def test_keep_fraction_validation(self):
        with pytest.raises(ValueError):
            SpectralLinker(keep_fraction=0.0)


class TestTuning:
    def test_grid_search_returns_best(self, small_world, true_refs):
        train_pos = true_refs[:5]
        val_pos = true_refs[5:9]
        n = len(true_refs)
        train_neg = [(true_refs[i][0], true_refs[(i + 3) % n][1]) for i in range(5)]
        val_neg = [(true_refs[i][0], true_refs[(i + 9) % n][1])
                   for i in range(5, 9)]
        grid = TuningGrid(q=(1.0, 4.0), lam=(4.0,), epsilon=(0.01,))
        result = tune_feature_parameters(
            small_world, train_pos, train_neg, val_pos, val_neg,
            grid=grid, num_topics=6, max_lda_docs=600, seed=5,
        )
        assert result.best_q in grid.q
        assert result.best_lam == 4.0
        assert 0.0 <= result.best_score <= 1.0
        assert len(result.table) == 2
        assert result.pipeline_kwargs() == {
            "sensor_q": result.best_q, "sensor_lam": result.best_lam,
        }

    def test_requires_both_classes(self, small_world, true_refs):
        with pytest.raises(ValueError):
            tune_feature_parameters(
                small_world, true_refs[:2], [], true_refs[2:4], true_refs[4:6]
            )


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "--persons", "5"])
        assert args.command == "generate"
        assert args.persons == 5

    def test_generate_runs(self, capsys):
        code = main(["generate", "--persons", "6", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "twitter" in out
        assert "facebook" in out

    def test_compare_runs(self, capsys):
        code = main([
            "compare", "--persons", "10", "--seed", "2",
            "--methods", "MOBIUS,SMaSh",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MOBIUS" in out
        assert "SMaSh" in out

    def test_link_runs(self, capsys):
        code = main([
            "link", "--persons", "12", "--seed", "3", "--show", "2",
            "--label-fraction", "0.3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "precision=" in out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "--dataset", "martian"])


class TestServiceCli:
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "artifact"
        code = main([
            "fit", "--persons", "10", "--seed", "4",
            "--label-fraction", "0.3", "--out", str(path),
        ])
        assert code == 0
        return path

    def test_fit_writes_artifact(self, artifact, capsys):
        assert (artifact / "manifest.json").is_file()
        assert (artifact / "arrays.npz").is_file()

    def test_score_pair_runs(self, artifact, capsys):
        code = main(["score", "--artifact", str(artifact), "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "facebook <-> twitter" in out
        assert "score" in out

    def test_score_account_runs(self, artifact, capsys):
        code = main([
            "score", "--artifact", str(artifact),
            "--account", "facebook", "fa000001", "--top", "2",
        ])
        assert code == 0
        assert "facebook/fa000001" in capsys.readouterr().out

    def test_pair_and_account_mutually_exclusive(self, artifact):
        with pytest.raises(SystemExit):
            main([
                "score", "--artifact", str(artifact),
                "--pair", "facebook", "twitter",
                "--account", "facebook", "fa000001",
            ])

    def test_serve_parser_wiring(self):
        parser = build_parser()
        args = parser.parse_args([
            "serve", "--artifact", "x", "--port", "0",
            "--max-pending", "9", "--deadline-ms", "250",
        ])
        assert args.command == "serve"
        assert args.max_pending == 9
        assert args.deadline_ms == 250.0

    def test_loadgen_mix_validation(self):
        from repro.cli import _parse_mix

        mix = _parse_mix("score=0.5,top_k=0.25,link=0.25")
        assert mix.score_pairs == 0.5
        with pytest.raises(SystemExit, match="bad --mix entry"):
            _parse_mix("score")  # missing =weight
        with pytest.raises(SystemExit, match="bad --mix entry"):
            _parse_mix("scores=0.8")  # typo'd op name
        with pytest.raises(SystemExit, match="must be a number"):
            _parse_mix("score=lots")
        with pytest.raises(SystemExit, match="must be >= 0"):
            _parse_mix("score=-1,top_k=2")
        with pytest.raises(SystemExit, match="sum to more than 0"):
            _parse_mix("score=0,top_k=0")

    def test_loadgen_cli_json_against_live_gateway(self, artifact, capsys):
        from repro.gateway import GatewayThread
        from repro.serving import LinkageService

        service = LinkageService.from_artifact(artifact)
        with service, GatewayThread(service) as gateway:
            code = main([
                "loadgen", "--host", gateway.host,
                "--port", str(gateway.port),
                "--requests", "12", "--concurrency", "3",
                "--mix", "score=0.8,top_k=0.2",
                "--pairs-per-request", "2", "--json",
            ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["name"] == "loadgen"
        assert document["metrics"]["requests_per_sec"] > 0
        assert document["metrics"]["p99_ms"] > 0
        assert document["rows"][0][1] == 12  # requests column

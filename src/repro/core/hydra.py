"""HYDRA: the end-to-end social identity linkage estimator (Algorithm 1).

:class:`HydraLinker` is a thin orchestrator over the staged fit pipeline of
:mod:`repro.core.stages`:

1. candidate pair selection by rule-based filtering
   (:class:`~repro.core.stages.CandidateStage` — Algorithm 1 step 1);
2. label merging and the global row layout
   (:class:`~repro.core.stages.LabelStage` — Eqn 13);
3. heterogeneous behavior featurization
   (:class:`~repro.core.stages.FeaturizeStage`) with missing-information
   handling — HYDRA-M fills from the core social structure (Eqn 18),
   HYDRA-Z fills zeros;
4. structure consistency graph construction per platform pair
   (:class:`~repro.core.stages.ConsistencyStage` — Algorithm 1 step 2);
5. multi-objective dual optimization
   (:class:`~repro.core.stages.OptimizeStage` — Algorithm 1 steps 3-6).

Per-stage wall times land in ``stage_timings_`` after :meth:`HydraLinker.fit`.
A fitted linker round-trips through :meth:`HydraLinker.save` /
:meth:`HydraLinker.load` (see :mod:`repro.persist`) so query serving
(:mod:`repro.serving`) never refits.

Typical use::

    from repro.core import HydraLinker

    linker = HydraLinker(missing_strategy="core")
    linker.fit(world, labeled_positive=pos_pairs, labeled_negative=neg_pairs)
    result = linker.linkage("twitter", "facebook")
    for (ref_a, ref_b), score in zip(result.linked, result.linked_scores):
        ...
    linker.save("artifacts/linker")
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.candidates import CandidateGenerator, CandidateSet
from repro.core.consistency import ConsistencyBlock, StructureConsistencyBuilder
from repro.core.moo import MooConfig, MultiObjectiveModel
from repro.core.resolve import greedy_one_to_one
from repro.core.stages import (
    CandidateStage,
    ConsistencyStage,
    FeaturizeStage,
    LabelStage,
    LinkageContext,
    LinkageStage,
    OptimizeStage,
    run_stages,
)
from repro.features.pipeline import AccountRef, FeaturePipeline
from repro.socialnet.platform import SocialWorld

__all__ = ["HydraLinker", "LinkageResult"]

Pair = tuple[AccountRef, AccountRef]


@dataclass
class LinkageResult:
    """Scored candidates and the final linkage decision for one platform pair.

    ``pairs``/``scores`` cover every candidate; ``linked``/``linked_scores``
    are the pairs the model asserts refer to the same natural person
    (thresholded and one-to-one resolved).
    """

    platform_a: str
    platform_b: str
    pairs: list[Pair]
    scores: np.ndarray
    linked: list[Pair] = field(default_factory=list)
    linked_scores: np.ndarray = field(default_factory=lambda: np.zeros(0))


class HydraLinker:
    """The HYDRA estimator.  See module docstring for the pipeline stages.

    Parameters
    ----------
    gamma_l, gamma_m, p:
        Multi-objective weights and utility exponent (Eqn 11).
    kernel, kernel_gamma:
        Dual-model kernel (``"rbf"``, ``"linear"``, ``"chi_square"``).
    missing_strategy:
        ``"core"`` = HYDRA-M (Eqn 18 fill), ``"zero"`` = HYDRA-Z.
    sigma1, sigma2, max_hops:
        Structure-consistency bandwidths and graph horizon (Eqn 9).
    threshold:
        Decision threshold on ``f(x)``; 0 is the SVM margin midpoint.
        Linkage is resolved greedily one-to-one above it
        (:func:`~repro.core.resolve.greedy_one_to_one`).
    use_prematched:
        Treat rule pre-matched candidates as (noisy) positive labels,
        as the paper's labeled-data collection does.
    workers, shard_size:
        Fit-time featurization parallelism: ``workers`` > 1 shards the
        featurize-and-fill pass over candidate pairs across a process pool
        (:mod:`repro.parallel`), merging shard results bit-identically to
        the serial pass; ``shard_size`` pins the deterministic shard length.
    """

    def __init__(
        self,
        *,
        gamma_l: float = 0.01,
        gamma_m: float = 100.0,
        p: float = 1.0,
        kernel: str = "rbf",
        kernel_gamma: float = 0.5,
        missing_strategy: str = "core",
        sigma1: float | None = None,
        sigma1_scale: float = 0.4,
        sigma2: float = 3.0,
        max_hops: int = 2,
        num_topics: int = 12,
        max_lda_docs: int = 6000,
        threshold: float = 0.0,
        use_prematched: bool = True,
        candidate_generator: CandidateGenerator | None = None,
        pipeline: FeaturePipeline | None = None,
        workers: int = 1,
        shard_size: int | None = None,
        seed: int = 0,
    ):
        if missing_strategy not in ("core", "zero"):
            raise ValueError(
                f"missing_strategy must be 'core' or 'zero', got {missing_strategy!r}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.moo_config = MooConfig(
            gamma_l=gamma_l,
            gamma_m=gamma_m,
            p=p,
            kernel=kernel,
            kernel_params={"gamma": kernel_gamma} if kernel == "rbf" else {},
        )
        self.missing_strategy = missing_strategy
        self.threshold = threshold
        self.use_prematched = use_prematched
        self.seed = seed
        self.candidate_generator = (
            candidate_generator if candidate_generator is not None else CandidateGenerator()
        )
        self.pipeline = (
            pipeline
            if pipeline is not None
            else FeaturePipeline(
                num_topics=num_topics, max_lda_docs=max_lda_docs, seed=seed
            )
        )
        self.consistency_builder = StructureConsistencyBuilder(
            sigma1=sigma1, sigma1_scale=sigma1_scale, sigma2=sigma2, max_hops=max_hops
        )
        self.workers = workers
        self.shard_size = shard_size

        self.model_: MultiObjectiveModel | None = None
        #: Directory this linker was last saved to / loaded from (set by the
        #: persist layer); parallel serving hands it to worker initializers
        #: so each process loads the artifact instead of unpickling a copy.
        self.artifact_path_: str | None = None
        #: Serving-registry epoch: bumped on every online mutation (account
        #: ingestion/removal) so caches, worker pools, and stale artifacts
        #: keyed to the previous state invalidate exactly once per mutation.
        self.ingest_epoch_: int = 0
        #: Fit-time Nyström fast scorer (repro.approx) for the approximate
        #: ranking path; persisted in the artifact, rebuilt deterministically
        #: when absent (pre-approx artifacts).  The fitted model is frozen
        #: across online mutations, so this never invalidates with the epoch.
        self.fast_scorer_ = None
        self.candidates_: dict[tuple[str, str], CandidateSet] = {}
        self.blocks_: list[ConsistencyBlock] = []
        self.global_pairs_: list[Pair] = []
        self.num_labeled_: int = 0
        self.stage_timings_: dict[str, float] = {}
        self._filler = None
        self._world: SocialWorld | None = None

    # ------------------------------------------------------------------
    # pipeline assembly
    # ------------------------------------------------------------------
    def build_stages(self) -> list[LinkageStage]:
        """The default fit pipeline; override or swap entries to customize."""
        return [
            CandidateStage(self.candidate_generator),
            LabelStage(use_prematched=self.use_prematched),
            FeaturizeStage(
                self.pipeline,
                missing_strategy=self.missing_strategy,
                workers=self.workers,
                shard_size=self.shard_size,
            ),
            ConsistencyStage(self.consistency_builder),
            OptimizeStage(self.moo_config),
        ]

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        world: SocialWorld,
        labeled_positive: list[Pair],
        labeled_negative: list[Pair],
        platform_pairs: list[tuple[str, str]] | None = None,
        *,
        candidates: dict[tuple[str, str], CandidateSet] | None = None,
    ) -> "HydraLinker":
        """Train the linkage function on one world.

        ``labeled_positive`` / ``labeled_negative`` are ground-truth labeled
        account pairs (the paper's user-provided cross-login links plus
        sampled non-links); ``platform_pairs`` restricts which platform
        combinations are modeled (default: all C(C-1)/2 ordered pairs);
        ``candidates`` optionally injects pre-generated candidate sets so
        several methods can be compared on identical blocking.
        """
        self._world = world
        # any on-disk artifact no longer describes this linker: a parallel
        # service must not hand workers a stale path after a refit; a refit
        # also resets the mutation history
        self.artifact_path_ = None
        self.ingest_epoch_ = 0
        if platform_pairs is None:
            names = world.platform_names()
            platform_pairs = [
                (names[i], names[j])
                for i in range(len(names))
                for j in range(i + 1, len(names))
            ]
        self.platform_pairs_ = platform_pairs

        context = LinkageContext(
            world=world,
            labeled_positive=list(labeled_positive),
            labeled_negative=list(labeled_negative),
            platform_pairs=platform_pairs,
            injected_candidates=candidates,
        )
        run_stages(self.build_stages(), context)

        self.candidates_ = context.candidates
        self.global_pairs_ = context.global_pairs
        self.num_labeled_ = context.num_labeled
        self.blocks_ = context.blocks
        self._filler = context.filler
        self.model_ = context.model
        self.stage_timings_ = dict(context.timings)
        # landmark selection happens at fit time so every consumer of this
        # model (service, shard router, reloaded artifact) ranks with the
        # same compressed kernel; the solve is O(L^2 d + L^3), negligible
        # next to the stages above
        self.fast_scorer_ = None
        self.ensure_fast_scorer()
        return self

    def ensure_fast_scorer(self):
        """The Nyström fast scorer for this model, built once (deterministic).

        Rebuilding from the same fitted model always reproduces the same
        scorer bytes (seeded landmark selection over the frozen training
        rows), so artifacts saved before the approximate path existed get
        an identical scorer on first use.
        """
        if self.model_ is None:
            raise RuntimeError("linker is not fitted; call fit() first")
        if self.fast_scorer_ is None:
            from repro.approx import ApproxConfig, FastScorer

            defaults = ApproxConfig()
            self.fast_scorer_ = FastScorer.from_model(
                self.model_,
                num_landmarks=defaults.num_landmarks,
                seed=defaults.seed,
                ridge=defaults.ridge,
            )
        return self.fast_scorer_

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def featurize_pairs(self, pairs: list[Pair]) -> np.ndarray:
        """The filled feature rows for ``pairs`` (featurize + Eqn 18 fill).

        Row-independent: each pair's row is bit-identical no matter which
        other pairs share the call — the property the sharded workers and
        the gateway's grouped scoring rely on.  Featurization runs on the
        pipeline's batch engine (packed account store + array-at-a-time
        kernels, see :mod:`repro.features.batch`); missing dimensions
        resolve through the fitted filler, whose Eqn 18 friend-pair
        vectors are batch-computed and memoized as well.
        """
        if self.model_ is None or self._filler is None:
            raise RuntimeError("linker is not fitted; call fit() first")
        x_raw = self.pipeline.matrix(pairs)
        return self._filler.fill_matrix(pairs, x_raw)

    def score_features(self, x: np.ndarray) -> np.ndarray:
        """Decision values for already-featurized rows (one kernel chunk).

        The kernel Gram evaluation is chunk-shape-sensitive at the bit
        level (BLAS summation order), so callers that promise bit-identity
        must present the same chunk compositions as the reference path.
        """
        if self.model_ is None:
            raise RuntimeError("linker is not fitted; call fit() first")
        return self.model_.decision_function(x)

    def score_pairs(self, pairs: list[Pair]) -> np.ndarray:
        """Decision values ``f(x)`` for arbitrary cross-platform pairs.

        Exactly :meth:`score_features` over :meth:`featurize_pairs` — the
        two stages are exposed separately so batched callers (the gateway's
        coalesced dispatch) can amortize featurization across requests
        while keeping per-request decision chunking.
        """
        if self.model_ is None or self._filler is None:
            raise RuntimeError("linker is not fitted; call fit() first")
        if not pairs:
            return np.zeros(0)
        return self.score_features(self.featurize_pairs(pairs))

    def linkage(self, platform_a: str, platform_b: str) -> LinkageResult:
        """Score this platform pair's candidates and resolve the linkage.

        Either orientation of the platform pair is accepted; the returned
        pairs follow the requested (platform_a, platform_b) orientation.
        """
        key = (platform_a, platform_b)
        flipped = False
        if key not in self.candidates_:
            key = (platform_b, platform_a)
            flipped = True
            if key not in self.candidates_:
                raise KeyError(
                    f"platform pair ({platform_a}, {platform_b}) was not fitted"
                )
        cand = self.candidates_[key]
        scores = self.score_pairs(cand.pairs)
        oriented = (
            [(b, a) for a, b in cand.pairs] if flipped else list(cand.pairs)
        )
        rows = greedy_one_to_one(oriented, scores, self.threshold)
        return LinkageResult(
            platform_a=platform_a,
            platform_b=platform_b,
            pairs=oriented,
            scores=scores,
            linked=[oriented[i] for i in rows],
            linked_scores=scores[rows],
        )

    # ------------------------------------------------------------------
    # online ingestion (post-fit, frozen models)
    # ------------------------------------------------------------------
    @property
    def world(self) -> SocialWorld:
        """The social world this linker was fitted on.

        The public handle for online ingestion: register arriving accounts
        on ``linker.world.platforms[...]`` (see
        :meth:`~repro.socialnet.platform.PlatformData.ingest_account`)
        before handing their refs to the serving layer.
        """
        if self._world is None:
            raise RuntimeError("linker is not fitted; call fit() first")
        return self._world

    def _bump_epoch(self) -> None:
        """Invalidate everything keyed to the pre-mutation serving state."""
        self.ingest_epoch_ += 1
        # the on-disk artifact no longer matches in-memory state, so parallel
        # workers must receive the mutated linker, not a stale path
        self.artifact_path_ = None
        if self._world is not None:
            self.candidate_generator.invalidate_signatures(self._world)
        clear = getattr(self._filler, "clear_memos", None)
        if clear is not None:
            clear()

    def ingest_accounts(self, refs: list[AccountRef]) -> None:
        """Absorb new world accounts into the fitted pipeline — no refit.

        The accounts must already live in the world (see
        :meth:`~repro.socialnet.platform.PlatformData.ingest_account`); their
        behavior caches are computed with the frozen fit-time models and
        delta-packed into the batch engine in O(new).  Candidate-index
        maintenance is the serving layer's job
        (:meth:`repro.serving.LinkageService.add_accounts` wraps both); this
        linker-level entry point exists for store-only workloads such as
        scoring ad-hoc pairs against ingested accounts.
        """
        if self.model_ is None or self._filler is None:
            raise RuntimeError("linker is not fitted; call fit() first")
        self.pipeline.add_accounts(refs)
        self._bump_epoch()

    def remove_accounts(self, refs: list[AccountRef]) -> None:
        """Drop accounts from the fitted pipeline's serving state.

        The model and its (numeric) training state are untouched — removal
        only stops the accounts from being featurized or served.
        """
        if self.model_ is None or self._filler is None:
            raise RuntimeError("linker is not fitted; call fit() first")
        self.pipeline.remove_accounts(refs)
        self._bump_epoch()

    def rebuild_serving_state(self) -> None:
        """Bulk-refresh the packed store and candidate sets from the world.

        The O(all) alternative to incremental ingestion: every world account
        is (re)featurized under the frozen models, the store is re-packed
        from scratch, and every fitted platform pair's candidates are
        regenerated.  Ingestion's parity tests compare the incremental path
        against exactly this."""
        if self.model_ is None or self._filler is None:
            raise RuntimeError("linker is not fitted; call fit() first")
        self.pipeline.repack()
        self._bump_epoch()
        self.candidates_ = {
            (pa, pb): self.candidate_generator.generate(self._world, pa, pb)
            for pa, pb in self.platform_pairs_
        }

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def sparsity_report(self) -> dict[str, float]:
        """The Section 7.5 sparsity statistics of the fitted model.

        Kernel-QP fits report the solver's support fraction directly; models
        without a QP result (e.g. a swapped-in linear/primal optimizer or a
        loaded artifact that dropped solver state) fall back to the support
        of whatever coefficient vector the model exposes — dual ``beta_`` /
        ``alpha_`` expansions or a primal weight vector ``w_``.
        """
        if self.model_ is None:
            raise RuntimeError("linker is not fitted; call fit() first")
        qp_result = getattr(self.model_, "qp_result_", None)
        if qp_result is not None:
            support = float(qp_result.support_fraction)
        else:
            support = self._coefficient_support(self.model_)
        m_nonzero = (
            float(np.mean([b.nonzero_fraction() for b in self.blocks_]))
            if self.blocks_
            else 0.0
        )
        return {
            "consistency_nonzero_fraction": m_nonzero,
            "beta_support_fraction": support,
            "num_candidates": float(len(self.global_pairs_)),
            "num_labeled": float(self.num_labeled_),
        }

    @staticmethod
    def _coefficient_support(model, tol: float = 1e-8) -> float:
        """Fraction of non-negligible coefficients in the fitted model."""
        for attr in ("beta_", "alpha_", "w_"):
            coef = getattr(model, attr, None)
            if coef is not None and np.size(coef):
                return float(np.mean(np.abs(np.asarray(coef, dtype=float)) > tol))
        raise RuntimeError("fitted model exposes no coefficient vector")

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path) -> "str":
        """Serialize this fitted linker to an on-disk artifact directory.

        See :mod:`repro.persist` for the artifact layout and versioning.
        """
        from repro.persist import save_linker

        return str(save_linker(self, path))

    @classmethod
    def load(cls, path) -> "HydraLinker":
        """Load a fitted linker from a :meth:`save` artifact (no refit).

        Called on a subclass, the artifact reloads as that subclass, so
        overridden stages or query behavior survive the round trip.
        """
        from repro.persist import load_linker

        return load_linker(path, linker_cls=cls)

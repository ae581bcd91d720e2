"""The similarity-vector pipeline: account pair -> x_ii' (Section 5 end-to-end).

:class:`FeaturePipeline` fits all shared models on a
:class:`~repro.socialnet.platform.SocialWorld` — vocabulary, LDA topic model,
sentiment lexicon encoding, style signatures, attribute-importance weights —
precomputes per-account behavior caches, and then emits the D-dimensional
pair-wise similarity vector for any cross-platform account pair.

Feature layout (``feature_names`` gives exact order):

========================  ====  =============================================
block                     dims  source
========================  ====  =============================================
attribute matches            7  Eqn 3 importance-weighted profile matching
username similarity          1  char-bigram Jaccard (Section 5.1)
face confidence              1  Fig 4 workflow (:mod:`repro.features.face`)
genre multi-scale            6  Fig 5 over LDA topic distributions
sentiment multi-scale        6  Fig 5 over sentiment distributions
style S_lea                  3  Eqn 4 at k = 1, 3, 5
sensor pooling              10  Eqn 5: {location, media} x 5 temporal scales
========================  ====  =============================================

Missing values stay NaN; resolve them with a strategy from
:mod:`repro.features.missing` before model training.

Two featurization paths
-----------------------

:meth:`FeaturePipeline.pair_vector` is the **reference path**: one pair at a
time, straight through the per-feature modules.  It stays the readable,
debuggable ground truth, and the core-structure missing filler's golden
definition.

:meth:`FeaturePipeline.matrix` runs the **batch path** by default: at the end
of :meth:`FeaturePipeline.fit` every account's cached behavior state is packed
into a :class:`~repro.features.batch.PackedAccountStore` — contiguous
per-scale bucket-profile stacks, style-signature id grids, face-embedding
rows, attribute codes, and CSR-encoded sensor windows, all indexed by an
``AccountRef -> row`` map — and a
:class:`~repro.features.batch.BatchFeaturizer` evaluates whole pair batches
with array operations.  The batch path is bit-identical to stacking
``pair_vector`` calls (the parity is covered by tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.attributes import (
    ATTRIBUTE_MATCHERS,
    AttributeImportanceModel,
    username_similarity,
)
from repro.features.batch import BatchFeaturizer, PackedAccountStore
from repro.features.face import FaceMatcher
from repro.features.sensors import LocationMatchingSensor, NearDuplicateMediaSensor
from repro.features.style_sim import style_similarity
from repro.features.temporal import MultiResolutionMatcher, SENSOR_SCALES_DAYS
from repro.features.topics import MultiScaleTopicSimilarity, TOPIC_SCALES_DAYS
from repro.socialnet.platform import SocialWorld
from repro.text.sentiment import SentimentModel
from repro.text.style import StyleExtractor, UserStyle
from repro.text.tokenizer import Tokenizer
from repro.text.variational import VariationalLDA
from repro.text.vocabulary import Vocabulary
from repro.utils.rng import RngFactory

__all__ = ["AccountRef", "PairFeatureResult", "FeaturePipeline"]

#: An account is addressed as ``(platform_name, account_id)`` everywhere above
#: the platform layer.
AccountRef = tuple[str, str]


@dataclass(frozen=True)
class PairFeatureResult:
    """A featurized pair: the raw vector (NaN = missing) plus its names."""

    pair: tuple[AccountRef, AccountRef]
    vector: np.ndarray
    names: tuple[str, ...]

    def missing_mask(self) -> np.ndarray:
        """Boolean mask of missing dimensions."""
        return np.isnan(self.vector)


@dataclass
class _AccountCache:
    """Per-account precomputed behavior state."""

    topic_profile: list  # per-scale bucket aggregates of LDA distributions
    sentiment_profile: list  # per-scale bucket aggregates of sentiment dists
    sensor_buckets: dict  # (kind, scale) -> window -> payloads
    style: UserStyle
    behavior_summary: np.ndarray  # compact vector for structure consistency


class FeaturePipeline:
    """Fits shared feature models and featurizes account pairs.

    Parameters
    ----------
    num_topics:
        LDA topic count.
    topic_kernel:
        Bucket similarity kernel: ``"chi_square"`` (default) or
        ``"histogram_intersection"``.
    sensor_q, sensor_lam:
        lq-pooling order and sigmoid steepness of the multi-resolution
        matcher (Eqn 5).
    topic_scales / sensor_scales:
        Temporal scale ladders (days).
    max_lda_docs:
        Training-corpus cap for LDA fitting (all messages are still
        *transformed*); keeps fitting cost bounded on large worlds.
    seed:
        Root seed for LDA initialization.
    """

    def __init__(
        self,
        *,
        num_topics: int = 12,
        topic_kernel: str = "chi_square",
        sensor_q: float = 3.0,
        sensor_lam: float = 4.0,
        topic_scales: tuple[float, ...] = TOPIC_SCALES_DAYS,
        sensor_scales: tuple[float, ...] = SENSOR_SCALES_DAYS,
        style_ks: tuple[int, ...] = (1, 3, 5),
        max_lda_docs: int = 6000,
        face_matcher: FaceMatcher | None = None,
        seed: int = 0,
    ):
        self.num_topics = num_topics
        self.topic_kernel = topic_kernel
        self.sensor_q = sensor_q
        self.sensor_lam = sensor_lam
        self.topic_scales = topic_scales
        self.sensor_scales = sensor_scales
        self.style_ks = style_ks
        self.max_lda_docs = max_lda_docs
        self.face = face_matcher if face_matcher is not None else FaceMatcher()
        self.seed = seed

        self.tokenizer = Tokenizer()
        self.sentiment = SentimentModel()
        self.style_extractor = StyleExtractor(ks=style_ks, tokenizer=self.tokenizer)
        self.importance = AttributeImportanceModel()

        self._world: SocialWorld | None = None
        self._cache: dict[AccountRef, _AccountCache] = {}
        self._names: tuple[str, ...] | None = None
        self._packed: PackedAccountStore | None = None
        self._batch: BatchFeaturizer | None = None

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        world: SocialWorld,
        positive_pairs: list[tuple[AccountRef, AccountRef]],
        negative_pairs: list[tuple[AccountRef, AccountRef]],
    ) -> "FeaturePipeline":
        """Fit every shared model and precompute per-account caches.

        ``positive_pairs`` / ``negative_pairs`` are the labeled account pairs
        that train the attribute-importance weights (Eqn 3); everything else
        is unsupervised over the whole world.
        """
        factory = RngFactory(self.seed)
        self._world = world
        time_lo = np.inf
        time_hi = -np.inf
        for platform in world.platforms.values():
            lo, hi = platform.events.time_range()
            if len(platform.events):
                time_lo = min(time_lo, lo)
                time_hi = max(time_hi, hi)
        if not np.isfinite(time_lo):
            time_lo, time_hi = 0.0, 1.0
        time_range = (float(time_lo), float(time_hi) + 1e-9)

        self._topic_sim = MultiScaleTopicSimilarity(
            scales_days=self.topic_scales, kernel=self.topic_kernel,
            time_range=time_range,
        )
        self._sentiment_sim = MultiScaleTopicSimilarity(
            scales_days=self.topic_scales, kernel=self.topic_kernel,
            time_range=time_range,
        )
        self._matcher = MultiResolutionMatcher(
            [LocationMatchingSensor(), NearDuplicateMediaSensor()],
            scales_days=self.sensor_scales,
            q=self.sensor_q,
            lam=self.sensor_lam,
            time_range=time_range,
        )

        # --- corpus: tokenize every post on every platform ----------------
        refs: list[AccountRef] = []
        docs_per_ref: dict[AccountRef, tuple[list[list[str]], np.ndarray]] = {}
        vocabulary = Vocabulary()
        for platform_name in world.platform_names():
            platform = world.platforms[platform_name]
            for account_id in platform.account_ids():
                ref = (platform_name, account_id)
                refs.append(ref)
                texts = platform.events.texts_of(account_id)
                tokens = self.tokenizer.tokenize_many(texts)
                times = platform.events.timestamps_for(account_id, "post")
                docs_per_ref[ref] = (tokens, times)
                vocabulary.add_corpus(tokens)
        self.vocabulary = vocabulary

        # --- LDA over the pooled corpus ------------------------------------
        all_docs: list[np.ndarray] = []
        doc_slices: dict[AccountRef, slice] = {}
        for ref in refs:
            tokens, _ = docs_per_ref[ref]
            start = len(all_docs)
            for doc in tokens:
                all_docs.append(vocabulary.encode(doc, skip_unknown=True))
            doc_slices[ref] = slice(start, len(all_docs))
        self.lda = VariationalLDA(
            num_topics=self.num_topics,
            vocab_size=max(len(vocabulary), 1),
            seed=factory.child("lda"),
        )
        if all_docs:
            if len(all_docs) > self.max_lda_docs:
                pick = factory.child("lda-sample").choice(
                    len(all_docs), size=self.max_lda_docs, replace=False
                )
                train_docs = [all_docs[i] for i in pick]
            else:
                train_docs = all_docs
            self.lda.fit(train_docs)
            all_theta = self.lda.transform(all_docs)
        else:
            all_theta = np.zeros((0, self.num_topics))

        # --- per-account caches --------------------------------------------
        self._cache = {}
        for ref in refs:
            platform = world.platforms[ref[0]]
            tokens, times = docs_per_ref[ref]
            theta = all_theta[doc_slices[ref]]
            senti = self.sentiment.corpus_distributions(tokens)
            topic_profile = self._topic_sim.account_profile(theta, times)
            sentiment_profile = self._sentiment_sim.account_profile(senti, times)
            buckets = self._matcher.account_buckets(platform.events, ref[1])
            # the corpus pass already tokenized this account's posts — reuse
            # the token docs instead of tokenizing a second time
            style = self.style_extractor.extract_from_tokens(tokens, vocabulary)
            summary = self._behavior_summary(theta, senti, platform, ref[1])
            self._cache[ref] = _AccountCache(
                topic_profile=topic_profile,
                sentiment_profile=sentiment_profile,
                sensor_buckets=buckets,
                style=style,
                behavior_summary=summary,
            )

        # --- attribute importance from labeled pairs ------------------------
        def profiles(pairs):
            return [
                (
                    world.platforms[a[0]].accounts[a[1]].profile,
                    world.platforms[b[0]].accounts[b[1]].profile,
                )
                for a, b in pairs
            ]

        self.importance.fit(profiles(positive_pairs), profiles(negative_pairs))

        self._names = self._build_names()
        self._build_batch_engine()
        return self

    def _pack_params(self) -> dict:
        """The fitted parameters every pack/append shares."""
        return dict(
            face=self.face,
            sensors=self._matcher.sensors,
            sensor_scales=self._matcher.scales_days,
            topic_scales=self._topic_sim.scales_days,
            time_range=self._matcher.time_range,
            style_ks=self.style_ks,
            topic_dim=self.num_topics,
            senti_dim=self.sentiment.num_categories,
        )

    def _make_featurizer(self, store: PackedAccountStore) -> BatchFeaturizer:
        return BatchFeaturizer(
            store,
            importance_scale=self.importance.weights_ / self.importance.weights_.max(),
            face=self.face,
            topic_kernel=self.topic_kernel,
            sensors=self._matcher.sensors,
            sensor_q=self.sensor_q,
            sensor_lam=self.sensor_lam,
        )

    def _build_batch_engine(self) -> None:
        """Pack the per-account caches and stand up the batch featurizer."""
        self._packed = PackedAccountStore.pack(
            self._world, list(self._cache), self._cache, **self._pack_params()
        )
        self._batch = self._make_featurizer(self._packed)

    def ensure_packed(self) -> bool:
        """Build the packed store/batch engine if absent; True when built.

        A no-op on pipelines fitted by this code; used when unpickling
        pipeline state written before the batch engine existed.
        """
        if getattr(self, "_batch", None) is not None:
            return False
        if self._world is None:
            raise RuntimeError("pipeline is not fitted; call fit() first")
        self._build_batch_engine()
        return True

    @property
    def packed_store(self) -> PackedAccountStore:
        """The packed per-account store behind the batch engine."""
        if self._packed is None:
            raise RuntimeError("pipeline is not fitted; call fit() first")
        return self._packed

    @property
    def batch_featurizer(self) -> BatchFeaturizer:
        """The array-at-a-time featurization engine."""
        if self._batch is None:
            raise RuntimeError("pipeline is not fitted; call fit() first")
        return self._batch

    # ------------------------------------------------------------------
    # online account ingestion (post-fit, frozen models)
    # ------------------------------------------------------------------
    def _compute_account_cache(self, ref: AccountRef) -> _AccountCache:
        """One account's behavior cache under the *frozen* fit-time models.

        Tokenization, vocabulary encoding, LDA inference, sentiment
        encoding, bucket profiles, style signature and behavior summary all
        run through the models fitted at :meth:`fit` time — nothing refits.
        LDA's variational initialization draws from a generator derived from
        ``(seed, platform, account_id)``, so an ingested account's features
        are reproducible and independent of arrival order or batching.
        """
        world = self._world
        platform = world.platforms[ref[0]]
        t0, t1 = self._matcher.time_range
        for kind in {sensor.kind for sensor in self._matcher.sensors}:
            times = platform.events.timestamps_for(ref[1], kind)
            if times.size and (times.min() < t0 or times.max() > t1):
                raise ValueError(
                    f"{ref} has {kind!r} events outside the fitted "
                    f"observation window [{t0:g}, {t1:g}]; the frozen "
                    "temporal grids cannot absorb them — refit instead"
                )
        texts = platform.events.texts_of(ref[1])
        tokens = self.tokenizer.tokenize_many(texts)
        times = platform.events.timestamps_for(ref[1], "post")
        docs = [self.vocabulary.encode(doc, skip_unknown=True) for doc in tokens]
        rng = RngFactory(self.seed).spawn("ingest").child(f"{ref[0]}/{ref[1]}")
        theta = self.lda.transform(docs, rng=rng)
        senti = self.sentiment.corpus_distributions(tokens)
        style = self.style_extractor.extract_from_tokens(tokens, self.vocabulary)
        return _AccountCache(
            topic_profile=self._topic_sim.account_profile(theta, times),
            sentiment_profile=self._sentiment_sim.account_profile(senti, times),
            sensor_buckets=self._matcher.account_buckets(platform.events, ref[1]),
            style=style,
            behavior_summary=self._behavior_summary(theta, senti, platform, ref[1]),
        )

    def add_accounts(self, refs: list[AccountRef]) -> None:
        """Featurize new world accounts in O(new): caches + delta-pack.

        The accounts must already exist in the world (see
        :meth:`~repro.socialnet.platform.PlatformData.ingest_account`) and
        must not have been featurized before.  After this call the batch
        engine scores pairs involving them bit-identically to a store that
        was re-packed from scratch over all accounts.
        """
        if self._world is None:
            raise RuntimeError("pipeline is not fitted; call fit() first")
        refs = list(refs)
        if len(set(refs)) != len(refs):
            raise ValueError("duplicate refs in add_accounts request")
        for ref in refs:
            platform = self._world.platforms.get(ref[0])
            if platform is None:
                raise KeyError(f"unknown platform: {ref[0]!r}")
            if ref[1] not in platform.accounts:
                raise KeyError(
                    f"{ref} is not in the world; ingest it into its "
                    "platform first"
                )
            if ref in self._cache:
                raise ValueError(f"{ref} is already featurized")
        self.ensure_packed()
        if (
            getattr(self._packed, "style_vocab", None) is None
            or getattr(self._packed, "eq_code_maps", None) is None
        ):
            # store pickled before delta packing existed: upgrade once
            self._build_batch_engine()
        caches = {ref: self._compute_account_cache(ref) for ref in refs}
        # append before adopting the caches: a failed append must not leave
        # refs looking featurizable while absent from the packed store
        self._packed.append(self._world, refs, caches, **self._pack_params())
        self._cache.update(caches)
        self._batch.refresh_derived()

    def remove_accounts(self, refs: list[AccountRef]) -> None:
        """Drop accounts from the caches and the packed store.

        O(all) — the store is re-sliced via ``subset`` — but touches no
        model state; removal is expected to be far rarer than arrival.
        """
        if self._world is None:
            raise RuntimeError("pipeline is not fitted; call fit() first")
        drop = set(refs)
        missing = [ref for ref in drop if ref not in self._cache]
        if missing:
            raise KeyError(f"refs not featurized: {sorted(missing)[:3]}")
        self.ensure_packed()
        keep = [ref for ref in self._packed.refs if ref not in drop]
        self._packed = self._packed.subset(keep)
        for ref in drop:
            del self._cache[ref]
        self._batch = self._make_featurizer(self._packed)

    def repack(self) -> None:
        """Bulk re-pack over every account currently in the world.

        The O(all) baseline the delta path is measured against: caches are
        computed (same frozen models, same per-account seeds) for every
        world account missing one, caches of accounts no longer in the
        world are dropped, and the store and batch engine are rebuilt from
        scratch.
        """
        if self._world is None:
            raise RuntimeError("pipeline is not fitted; call fit() first")
        world_refs = [
            (name, account_id)
            for name in self._world.platform_names()
            for account_id in self._world.platforms[name].account_ids()
        ]
        for ref in world_refs:
            if ref not in self._cache:
                self._cache[ref] = self._compute_account_cache(ref)
        alive = set(world_refs)
        for ref in [r for r in self._cache if r not in alive]:
            del self._cache[ref]
        self._build_batch_engine()

    def _behavior_summary(
        self, theta: np.ndarray, senti: np.ndarray, platform, account_id: str
    ) -> np.ndarray:
        """Compact per-account behavior vector for structure consistency.

        Mean topic distribution, mean sentiment distribution and log-scaled
        modality volumes — the user-level representation behind ``M(a, a)``.
        """
        mean_topic = (
            theta.mean(axis=0) if theta.size else np.full(self.num_topics, np.nan)
        )
        mean_senti = senti.mean(axis=0) if senti.size else np.full(4, np.nan)
        volumes = np.log1p(
            [
                platform.events.count(account_id, "post"),
                platform.events.count(account_id, "checkin"),
                platform.events.count(account_id, "media"),
            ]
        ) / np.log(1000.0)
        return np.concatenate([mean_topic, mean_senti, volumes])

    # ------------------------------------------------------------------
    # featurization
    # ------------------------------------------------------------------
    def _build_names(self) -> tuple[str, ...]:
        names = [f"attr:{a}" for a in ATTRIBUTE_MATCHERS]
        names.append("username_sim")
        names.append("face_score")
        names.extend(f"genre@{s:g}d" for s in self.topic_scales)
        names.extend(f"sentiment@{s:g}d" for s in self.topic_scales)
        names.extend(f"style@k{k}" for k in sorted(self.style_ks))
        names.extend(self._matcher.feature_names())
        return tuple(names)

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Names of the vector dimensions, in order."""
        if self._names is None:
            raise RuntimeError("pipeline is not fitted; call fit() first")
        return self._names

    @property
    def dim(self) -> int:
        """Feature-vector dimensionality D."""
        return len(self.feature_names)

    def behavior_summary(self, ref: AccountRef) -> np.ndarray:
        """Cached per-account behavior vector (for structure consistency)."""
        return self._cache[ref].behavior_summary

    def pair_vector(self, ref_a: AccountRef, ref_b: AccountRef) -> np.ndarray:
        """The D-dimensional similarity vector x_ii' (NaN = missing)."""
        if self._world is None:
            raise RuntimeError("pipeline is not fitted; call fit() first")
        world = self._world
        prof_a = world.platforms[ref_a[0]].accounts[ref_a[1]].profile
        prof_b = world.platforms[ref_b[0]].accounts[ref_b[1]].profile
        cache_a = self._cache[ref_a]
        cache_b = self._cache[ref_b]

        parts = [
            self.importance.weighted_matches(prof_a, prof_b),
            np.array([username_similarity(prof_a.username, prof_b.username)]),
            np.array([self.face.score(prof_a.face_embedding, prof_b.face_embedding)]),
            self._topic_sim.similarity_from_profiles(
                cache_a.topic_profile, cache_b.topic_profile
            ),
            self._sentiment_sim.similarity_from_profiles(
                cache_a.sentiment_profile, cache_b.sentiment_profile
            ),
            style_similarity(cache_a.style, cache_b.style),
            self._matcher.match_from_buckets(
                cache_a.sensor_buckets, cache_b.sensor_buckets
            ),
        ]
        return np.concatenate(parts)

    def featurize(self, ref_a: AccountRef, ref_b: AccountRef) -> PairFeatureResult:
        """Vector plus metadata for one pair."""
        return PairFeatureResult(
            pair=(ref_a, ref_b),
            vector=self.pair_vector(ref_a, ref_b),
            names=self.feature_names,
        )

    def matrix(self, pairs: list[tuple[AccountRef, AccountRef]]) -> np.ndarray:
        """Feature matrix (n_pairs, D) for a pair list; rows keep NaNs.

        Runs on the batch engine, which every pipeline fitted by this code
        has; pipeline state unpickled from before the engine existed falls
        back to stacking :meth:`pair_vector` rows (bit-identical).
        """
        if not pairs:
            return np.zeros((0, self.dim))
        batch = getattr(self, "_batch", None)
        if batch is not None:
            return batch.matrix(pairs)
        return np.vstack([self.pair_vector(a, b) for a, b in pairs])

"""The batch-scoring service: linkage queries without refitting.

:class:`LinkageService` wraps a *fitted* :class:`~repro.core.hydra.HydraLinker`
(constructed in memory or loaded from a :mod:`repro.persist` artifact) and
serves three query shapes:

* :meth:`LinkageService.score_pairs` — decision values for arbitrary pair
  batches, featurized :data:`SCORE_CHUNK` pairs at a time so memory stays
  bounded;
* :meth:`LinkageService.link_account` — resolve one account against every
  indexed candidate on the other platforms (the "who is this user
  elsewhere?" query);
* :meth:`LinkageService.top_k` — the strongest candidate links of a platform
  pair.

Candidate lookups go through a per-platform inverted index built once at
construction; per-platform-pair candidate scores are computed lazily on
first touch and memoized in a bounded :class:`LruCache`, as are per-account
behavior summaries.  :meth:`LinkageService.stats` exposes the running
counters (queries, pairs scored, cache hit/miss rates) for capacity
monitoring.

Every scoring path is featurize-then-decide, and both halves are
row-stable: the pipeline's batch engine (see :mod:`repro.features.batch`)
featurizes each pair independently of its co-batched pairs, and the
model's decision function scores each row on its own
(:mod:`repro.core.moo`).  A pair's score is therefore the same bytes
whichever call, chunk or request batch it arrives in, so
:meth:`LinkageService.score_pairs`, the score-cache fill and the
approximate path's exact short-list scores agree byte for byte with no
chunking discipline.  The service runs in the calling process;
multi-process serving is the shard tier's job (:mod:`repro.shard`).

The service is *mutable* at serve time: :meth:`LinkageService.add_accounts`
absorbs accounts that arrived after the fit (frozen models, O(new)
delta-packing, live incremental blocking — see :mod:`repro.serving.registry`
and :mod:`repro.index`), and :meth:`LinkageService.remove_account` withdraws
one.  Every mutation bumps the registry epoch and invalidates the affected
per-platform-pair score caches.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.approx import ApproxConfig, prune_rows
from repro.core.hydra import HydraLinker
from repro.features.pipeline import AccountRef
from repro.utils.ranking import top_k_indices

__all__ = [
    "SCORE_CACHE_SIZE",
    "SCORE_CHUNK",
    "SUMMARY_CACHE_SIZE",
    "IngestReport",
    "LinkageService",
    "LruCache",
    "ScoredLink",
    "ServiceStats",
]

Pair = tuple[AccountRef, AccountRef]

#: Capacity of the per-account behavior-summary LRU.
SUMMARY_CACHE_SIZE = 4096
#: Capacity of the per-platform-pair candidate-score LRU; keeps the
#: memoized score arrays bounded when a service handles many platform pairs.
SCORE_CACHE_SIZE = 64
#: Pairs featurized per step of a scoring call.  It bounds the featurizer's
#: working set only: scores are row-stable, so it never changes a byte.
SCORE_CHUNK = 256


class LruCache:
    """A small least-recently-used cache with hit/miss counters.

    Thread-safe: every operation holds an internal re-entrant lock, so
    concurrent gateway reader threads cannot corrupt the recency order or
    the hit/miss counters.  ``compute`` runs *under* the lock — fills are
    single-flight per cache (one thread fills while the others wait and
    then hit), which is exactly what the memoized score arrays want; keep
    compute callbacks free of calls back into the same cache.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get_or_compute(self, key, compute):
        """Return the cached value for ``key``, computing and inserting on miss."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                value = compute()
                self._data[key] = value
                if len(self._data) > self.maxsize:
                    self._data.popitem(last=False)
                return value
            self.hits += 1
            self._data.move_to_end(key)
            return value

    def get_many(self, keys, compute_one) -> tuple[dict, int, int]:
        """Resolve several keys under **one** lock acquisition.

        Returns ``(values, hits, misses)``.  The batched form exists for
        response assembly (``link_account`` resolving every returned
        link's summaries at once): deduplicated keys, a single pass over
        the recency order, and one lock round-trip instead of one per
        link.  ``compute_one`` runs under the lock, like
        :meth:`get_or_compute`'s fill does.
        """
        values: dict = {}
        hits = misses = 0
        with self._lock:
            for key in keys:
                if key in values:
                    continue
                try:
                    value = self._data[key]
                except KeyError:
                    self.misses += 1
                    misses += 1
                    value = compute_one(key)
                    self._data[key] = value
                    if len(self._data) > self.maxsize:
                        self._data.popitem(last=False)
                else:
                    self.hits += 1
                    hits += 1
                    self._data.move_to_end(key)
                values[key] = value
        return values, hits, misses

    def invalidate(self, key) -> bool:
        """Drop one entry; True when something was actually cached."""
        with self._lock:
            try:
                del self._data[key]
            except KeyError:
                return False
            return True

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._data.clear()


@dataclass(frozen=True)
class ScoredLink:
    """One served candidate link: the pair, its decision value, and context."""

    pair: Pair
    score: float
    evidence: frozenset[str]
    behavior_distance: float


@dataclass(frozen=True)
class IngestReport:
    """What one :meth:`LinkageService.add_accounts` call changed.

    ``links`` holds the newly created candidate links (scored with the
    fitted model, strongest first) when scoring was requested;
    ``pairs_removed`` counts previously indexed pairs displaced by
    re-ranked candidate budgets.
    """

    refs: tuple[AccountRef, ...]
    epoch: int
    pairs_added: int
    pairs_removed: int
    links: tuple[ScoredLink, ...] = ()


@dataclass
class ServiceStats:
    """Running counters of one service instance.

    The workload block: ``queries`` counts served calls, ``pairs_scored`` /
    ``batches`` the pairs and :data:`SCORE_CHUNK` chunks those calls
    scored, and the ``*_cache_*`` counters the summary and score LRUs'
    hits, misses and entries.  Internal cache fills are not workload.

    The ingestion block: ``registry_epoch`` is the served registry's
    mutation epoch (0 = pristine fit state), and ``accounts_ingested`` /
    ``accounts_removed`` / ``ingest_batches`` count this service's online
    mutations.

    The response-assembly block: ``distance_batches`` counts batched
    behavior-distance lookups (one per served response needing them) and
    ``summary_batch_hits`` how many of those batched summary fetches were
    already cached — the measure of what batching saves over per-link
    lookups.

    The approximate-scoring block: ``approx_queries`` counts ``top_k`` /
    ``link_account`` calls served with ``exact=False`` and
    ``approx_pairs_scored`` the pruned candidates their fast-path kernel
    ranked (compare against ``pairs_scored`` × the candidate-set size to
    see the pruning win).
    """

    queries: int = 0
    pairs_scored: int = 0
    batches: int = 0
    summary_cache_hits: int = 0
    summary_cache_misses: int = 0
    score_cache_entries: int = 0
    score_cache_hits: int = 0
    score_cache_misses: int = 0
    registry_epoch: int = 0
    accounts_ingested: int = 0
    accounts_removed: int = 0
    ingest_batches: int = 0
    distance_batches: int = 0
    summary_batch_hits: int = 0
    approx_queries: int = 0
    approx_pairs_scored: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _PairIndex:
    """Inverted candidate index for one fitted platform pair."""

    pairs: list[Pair]
    evidence: list[frozenset[str]]
    by_left: dict[str, list[int]] = field(default_factory=dict)
    by_right: dict[str, list[int]] = field(default_factory=dict)


class LinkageService:
    """Serve linkage queries from a fitted linker — no refitting, ever.

    Parameters
    ----------
    linker:
        A fitted :class:`~repro.core.hydra.HydraLinker`.
    wal:
        An open :class:`~repro.wal.log.WriteAheadLog`.  When attached,
        every mutation (:meth:`add_accounts` / :meth:`remove_account`)
        appends its record *before* applying — write-ahead discipline —
        so a crash at any instant is recoverable from the base artifact
        plus the log (:func:`repro.wal.recover`).  :meth:`close`
        flushes and closes it.

    The summary and score LRUs hold :data:`SUMMARY_CACHE_SIZE` and
    :data:`SCORE_CACHE_SIZE` entries.
    """

    #: Defaults for the approximate scoring path: the prefilter budget when
    #: a ``top_k(..., exact=False)`` caller does not pass one, the landmark
    #: count, and the rescore window.  The approximate path is **opt-in per
    #: call** — exact behavior never depends on it.
    approx = ApproxConfig()

    def __init__(
        self,
        linker: HydraLinker,
        *,
        wal=None,
    ):
        if linker.model_ is None or linker._filler is None:
            raise RuntimeError("linker is not fitted; fit() or load() first")
        self.linker = linker
        self._wal = wal
        self._registry = None  # lazy ServingRegistry, built on first mutation
        # workload counters are touched by every reader; the gateway runs
        # readers on several threads, so they get a lock (mutations —
        # add/remove — additionally require the gateway's writer fence:
        # reads during a mutation are the *caller's* race)
        self._stats_lock = threading.Lock()
        self._summaries = LruCache(SUMMARY_CACHE_SIZE)
        self._score_cache = LruCache(SCORE_CACHE_SIZE)
        self._queries = 0
        self._pairs_scored = 0
        self._batches = 0
        self._accounts_ingested = 0
        self._accounts_removed = 0
        self._ingest_batches = 0
        self._distance_batches = 0
        self._summary_batch_hits = 0
        self._approx_queries = 0
        self._approx_pairs_scored = 0

        self._index: dict[tuple[str, str], _PairIndex] = {}
        for key in linker.candidates_:
            self._reindex_key(key)

    def _reindex_key(self, key: tuple[str, str]) -> None:
        """(Re)build the inverted candidate index for one platform pair."""
        cand = self.linker.candidates_[key]
        index = _PairIndex(pairs=list(cand.pairs), evidence=list(cand.evidence))
        for row, (ref_a, ref_b) in enumerate(cand.pairs):
            index.by_left.setdefault(ref_a[1], []).append(row)
            index.by_right.setdefault(ref_b[1], []).append(row)
        self._index[key] = index

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(cls, path, **kwargs) -> "LinkageService":
        """Load a :mod:`repro.persist` artifact and serve it."""
        return cls(HydraLinker.load(path), **kwargs)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def platform_pairs(self) -> list[tuple[str, str]]:
        """The platform pairs this service can answer for."""
        return sorted(self._index)

    def num_candidates(self) -> int:
        """Total indexed candidate pairs across all platform pairs."""
        return sum(len(index.pairs) for index in self._index.values())

    def candidate_pairs(self, key: tuple[str, str]) -> list[Pair]:
        """The indexed candidate pairs of one platform pair, in index order.

        Part of the serving interface the sharded router
        (:class:`repro.shard.ShardedLinkageService`) also implements; the
        gateway's ``/candidates`` endpoint goes through it rather than
        reaching into ``linker.candidates_``.
        """
        key = (key[0], key[1])
        if key not in self._index:
            raise KeyError(f"platform pair {key} was not fitted")
        return list(self._index[key].pairs)

    def score_pairs(self, pairs: list[Pair]) -> np.ndarray:
        """Decision values for arbitrary pairs, scored chunk by chunk."""
        with self._stats_lock:
            self._queries += 1
        if not pairs:
            return np.zeros(0)
        out = self._score(pairs)
        with self._stats_lock:
            self._pairs_scored += len(pairs)
            self._batches += -(-len(pairs) // SCORE_CHUNK)  # ceil division
        return out

    def _featurize_chunked(self, pairs: list[Pair]) -> np.ndarray:
        """Exact float64 feature rows, featurized :data:`SCORE_CHUNK` pairs
        at a time (the chunking bounds the featurizer's working set)."""
        return np.vstack([
            self.linker.featurize_pairs(pairs[lo : lo + SCORE_CHUNK])
            for lo in range(0, len(pairs), SCORE_CHUNK)
        ])

    def _score(self, pairs: list[Pair]) -> np.ndarray:
        """Chunked scoring through the linker; counters stay untouched so
        internal cache fills don't masquerade as workload.

        Each chunk is decided before the next one is featurized, so a
        cache fill over a whole candidate set holds one chunk of feature
        rows at a time, not the set's full matrix."""
        out = np.empty(len(pairs))
        for lo in range(0, len(pairs), SCORE_CHUNK):
            chunk = pairs[lo : lo + SCORE_CHUNK]
            out[lo : lo + len(chunk)] = self.linker.score_pairs(chunk)
        return out

    def close(self) -> None:
        """Flush and close the attached WAL."""
        self.close_wal()

    def __enter__(self) -> "LinkageService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # online ingestion
    # ------------------------------------------------------------------
    @property
    def registry_epoch(self) -> int:
        """Mutation epoch of the served registry (0 = pristine fit state)."""
        return getattr(self.linker, "ingest_epoch_", 0)

    @property
    def world(self):
        """The served world — register arriving accounts here first."""
        return self.linker.world

    def _ensure_registry(self):
        if self._registry is None:
            from repro.serving.registry import ServingRegistry

            self._registry = ServingRegistry(self.linker)
        return self._registry

    # ------------------------------------------------------------------
    # write-ahead log plumbing
    # ------------------------------------------------------------------
    @property
    def wal(self):
        """The attached :class:`~repro.wal.log.WriteAheadLog`, or None."""
        return self._wal

    def attach_wal(self, wal) -> None:
        """Attach an open log; mutations append to it before applying."""
        if self._wal is not None and wal is not self._wal:
            raise RuntimeError("service already has a write-ahead log")
        self._wal = wal

    def detach_wal(self):
        """Release and return the attached log without closing it.

        The blue/green swap hands the log from the outgoing service to
        the incoming one this way, so logged history stays continuous
        across the cutover.
        """
        wal, self._wal = self._wal, None
        return wal

    def close_wal(self) -> None:
        """Flush and close the attached log (idempotent, keeps it attached)."""
        if self._wal is not None:
            self._wal.close()

    def _wal_append(self, op: str, refs):
        """Write-ahead append of one mutation; returns the record (or None).

        The record carries the post-mutation epoch and, for ingests, the
        accounts' full world state captured *now* — the log must never
        depend on the (about to crash?) process's memory.
        """
        if self._wal is None:
            return None
        from repro.wal.log import WalRecord
        from repro.wal.payload import capture_payload

        refs = tuple(tuple(ref) for ref in refs)
        payloads = None
        if op == "ingest":
            payloads = tuple(capture_payload(self.world, ref) for ref in refs)
        record = WalRecord(
            op=op, epoch=self.registry_epoch + 1, refs=refs,
            payloads=payloads, ts=time.time(),
        )
        self._wal.append(record)
        return record

    def _wal_abort(self, record) -> None:
        """Cancel a write-ahead record whose apply step failed.

        Replay must skip the mutation exactly like the live service did;
        the abort append itself is best-effort — the apply failure that
        brought us here is the error that must surface.
        """
        if record is None or self._wal is None:
            return
        from repro.wal.log import WalRecord

        try:
            self._wal.append(
                WalRecord(op="abort", epoch=record.epoch, refs=record.refs,
                          ts=time.time())
            )
        except Exception:
            pass

    def _affected_keys(self, platforms: set[str]) -> list[tuple[str, str]]:
        return [
            key for key in self._index
            if key[0] in platforms or key[1] in platforms
        ]

    def add_accounts(
        self, refs: list[AccountRef], *, score: bool = True
    ) -> IngestReport:
        """Absorb new accounts into the running service — no refit.

        The accounts must already exist in the linker's world (register them
        with :meth:`~repro.socialnet.platform.PlatformData.ingest_account`
        first).  Each account is featurized with the frozen fit-time models
        and delta-packed in O(new); it is blocked against the live candidate
        indexes of every fitted platform pair it participates in, and the
        touched candidate groups are re-ranked under the per-account budget.
        Score caches for the mutated platform pairs invalidate via the
        registry epoch.

        With ``score=True`` the newly created candidate pairs are scored
        immediately and returned (strongest first) on the report.
        """
        refs = list(refs)
        if not refs:
            return IngestReport(
                refs=(), epoch=self.registry_epoch, pairs_added=0,
                pairs_removed=0,
            )
        record = self._wal_append("ingest", refs)
        added: list[Pair] = []
        removed = 0
        try:
            registry = self._ensure_registry()
            affected = self._affected_keys({ref[0] for ref in refs})
            for key in affected:
                # the live index must bootstrap from the pre-mutation store
                registry.ensure_index(key)
            self.linker.ingest_accounts(refs)
            for key in affected:
                delta = registry.apply_arrivals(key, refs)
                self._reindex_key(key)
                self._score_cache.invalidate(key)
                added.extend(delta.added)
                removed += len(delta.removed)
        except BaseException:
            self._wal_abort(record)
            raise
        with self._stats_lock:
            self._accounts_ingested += len(refs)
            self._ingest_batches += 1
        links: tuple[ScoredLink, ...] = ()
        if score and added:
            links = tuple(
                sorted(
                    self._links_for(added), key=lambda link: -link.score
                )
            )
        return IngestReport(
            refs=tuple(refs),
            epoch=self.registry_epoch,
            pairs_added=len(added),
            pairs_removed=removed,
            links=links,
        )

    def remove_account(self, ref: AccountRef) -> int:
        """Withdraw one account from serving; returns the pairs removed.

        The account disappears from the packed store and from every
        candidate index; groups that referenced it are re-ranked, so
        candidates displaced past the budget by its arrival can resurface
        (the count returned is of removed pairs only — re-ranked groups may
        simultaneously *gain* pairs).  The underlying world and the fitted
        model are untouched.
        """
        if ref not in self.linker.pipeline.packed_store.row_of:
            raise KeyError(f"{ref} is not served")
        record = self._wal_append("remove", (ref,))
        try:
            registry = self._ensure_registry()
            affected = self._affected_keys({ref[0]})
            for key in affected:
                registry.ensure_index(key)
            dropped = 0
            for key in affected:
                delta = registry.apply_removal(key, ref)
                dropped += len(delta.removed)
            self.linker.remove_accounts([ref])
            for key in affected:
                self._reindex_key(key)
                self._score_cache.invalidate(key)
            self._summaries.invalidate(ref)
        except BaseException:
            self._wal_abort(record)
            raise
        with self._stats_lock:
            self._accounts_removed += 1
        return dropped

    def _links_for(self, pairs: list[Pair]) -> list[ScoredLink]:
        """Scored links (with evidence) for freshly indexed pairs."""
        by_key: dict[tuple[str, str], list[Pair]] = {}
        for pair in pairs:
            by_key.setdefault((pair[0][0], pair[1][0]), []).append(pair)
        links: list[ScoredLink] = []
        for key, key_pairs in by_key.items():
            cand = self.linker.candidates_[key]
            row_of = cand.pair_index()
            scores = self._score(key_pairs)
            distances = self.behavior_distances(key_pairs)
            for pair, score, distance in zip(key_pairs, scores, distances):
                links.append(
                    ScoredLink(
                        pair=pair,
                        score=float(score),
                        evidence=cand.evidence[row_of[pair]],
                        behavior_distance=distance,
                    )
                )
        return links

    def top_k(
        self,
        platform_a: str,
        platform_b: str,
        k: int = 10,
        *,
        exact: bool = True,
        budget: int | None = None,
    ) -> list[ScoredLink]:
        """The ``k`` strongest candidate links for one platform pair.

        Either orientation is accepted; returned pairs follow the requested
        orientation.

        With ``exact=False`` the ranking goes through the approximate path
        (:mod:`repro.approx`): only the top-``budget`` blocking-rule
        survivors are scored, through the float32 landmark fast scorer,
        and the resulting short list is rescored exactly.  Returned
        *scores* are always exact bytes — only the cutoff (which pairs
        make the list) is approximate.  ``budget=None`` uses the
        service-level :class:`~repro.approx.ApproxConfig` default.
        ``exact=True`` (the default) is byte-identical to exhaustive
        scoring and is never affected by the approximate machinery.
        """
        with self._stats_lock:
            self._queries += 1
        key, flipped = self._resolve(platform_a, platform_b)
        if not exact:
            items, scores = self._approx_top_k(key, k, budget, flipped)
            return self._scored_links(items, scores)
        scores = self._cached_scores(key)
        order = top_k_indices(scores, max(k, 0))
        items = [(key, int(row), flipped) for row in order]
        return self._scored_links(items, scores[order])

    def link_account(
        self,
        platform: str,
        account_id: str,
        *,
        other_platform: str | None = None,
        top: int = 5,
        exact: bool = True,
        budget: int | None = None,
    ) -> list[ScoredLink]:
        """Resolve one account against its indexed candidates.

        Searches every fitted platform pair that involves ``platform``
        (restricted to ``other_platform`` when given) and returns the
        strongest ``top`` links, oriented with the queried account first.

        With ``exact=False`` each platform pair prunes the account's
        candidate rows to the index's top-``budget`` survivors and the
        union is ranked through the approximate fast path with exact
        rescoring of the final list — same contract as :meth:`top_k`:
        approximate cutoff, exact returned scores.
        """
        with self._stats_lock:
            self._queries += 1
        scored: list[tuple[tuple[tuple[str, str], int, bool], float]] = []
        candidates: list[tuple[tuple[str, str], int, bool]] = []
        for key, index in self._index.items():
            if key[0] == platform and (other_platform in (None, key[1])):
                rows, flipped = index.by_left.get(account_id, []), False
            elif key[1] == platform and (other_platform in (None, key[0])):
                rows, flipped = index.by_right.get(account_id, []), True
            else:
                continue
            if not exact:
                pruned = prune_rows(
                    index.evidence, index.pairs, self._budget(budget),
                    rows=rows,
                )
                candidates.extend((key, int(row), flipped) for row in pruned)
                continue
            scores = self._cached_scores(key)
            scored.extend(
                ((key, int(row), flipped), float(scores[row])) for row in rows
            )
        if not exact:
            items, approx_scores = self._approx_select(
                candidates, max(top, 0)
            )
            return self._scored_links(items, approx_scores)
        scored.sort(key=lambda entry: -entry[1])
        scored = scored[: max(top, 0)]
        return self._scored_links(
            [entry[0] for entry in scored], [entry[1] for entry in scored]
        )

    def account_summary(self, ref: AccountRef) -> np.ndarray:
        """Behavior summary of one account, via the bounded LRU cache."""
        return self._summaries.get_or_compute(
            ref, lambda: self.linker.pipeline.behavior_summary(ref)
        )

    def behavior_distance(self, ref_a: AccountRef, ref_b: AccountRef) -> float:
        """Euclidean distance between two accounts' behavior summaries."""
        va = np.nan_to_num(self.account_summary(ref_a), nan=0.0)
        vb = np.nan_to_num(self.account_summary(ref_b), nan=0.0)
        return float(np.linalg.norm(va - vb))

    def behavior_distances(self, pairs: list[Pair]) -> list[float]:
        """Behavior distances for many pairs with one batched cache pass.

        The accounts' summaries are deduplicated and fetched through a
        single :meth:`LruCache.get_many` call — one lock acquisition per
        response instead of two per link — and the batch's cache hits are
        recorded on :class:`ServiceStats` (``distance_batches`` /
        ``summary_batch_hits``).  Values are identical to calling
        :meth:`behavior_distance` per pair.
        """
        if not pairs:
            return []
        refs: list[AccountRef] = []
        seen: set[AccountRef] = set()
        for ref_a, ref_b in pairs:
            for ref in (ref_a, ref_b):
                if ref not in seen:
                    seen.add(ref)
                    refs.append(ref)
        summaries, hits, _ = self._summaries.get_many(
            refs, lambda ref: self.linker.pipeline.behavior_summary(ref)
        )
        with self._stats_lock:
            self._distance_batches += 1
            self._summary_batch_hits += hits
        out: list[float] = []
        for ref_a, ref_b in pairs:
            va = np.nan_to_num(summaries[ref_a], nan=0.0)
            vb = np.nan_to_num(summaries[ref_b], nan=0.0)
            out.append(float(np.linalg.norm(va - vb)))
        return out

    def stats(self) -> ServiceStats:
        """Snapshot of the service counters."""
        # cache numbers are gathered before _stats_lock: a score-cache fill
        # holds its cache lock for the whole scoring pass, and waiting on
        # it while holding _stats_lock would stall every reader's counter
        # update behind the fill; the two locks are never nested
        summary_hits, summary_misses = (
            self._summaries.hits, self._summaries.misses,
        )
        score_entries = len(self._score_cache)
        score_hits, score_misses = (
            self._score_cache.hits, self._score_cache.misses,
        )
        with self._stats_lock:
            return ServiceStats(
                queries=self._queries,
                pairs_scored=self._pairs_scored,
                batches=self._batches,
                summary_cache_hits=summary_hits,
                summary_cache_misses=summary_misses,
                score_cache_entries=score_entries,
                score_cache_hits=score_hits,
                score_cache_misses=score_misses,
                registry_epoch=self.registry_epoch,
                accounts_ingested=self._accounts_ingested,
                accounts_removed=self._accounts_removed,
                ingest_batches=self._ingest_batches,
                distance_batches=self._distance_batches,
                summary_batch_hits=self._summary_batch_hits,
                approx_queries=self._approx_queries,
                approx_pairs_scored=self._approx_pairs_scored,
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resolve(self, platform_a: str, platform_b: str) -> tuple[tuple[str, str], bool]:
        key = (platform_a, platform_b)
        if key in self._index:
            return key, False
        key = (platform_b, platform_a)
        if key in self._index:
            return key, True
        raise KeyError(f"platform pair ({platform_a}, {platform_b}) was not fitted")

    def _cached_scores(self, key: tuple[str, str]) -> np.ndarray:
        """Candidate scores for one platform pair, via the bounded LRU.

        Goes through :meth:`_score` directly: the lazy index fill is not
        served workload and must not skew the workload counters (cache
        hit/miss counts are tracked separately in :class:`ServiceStats`).
        """
        return self._score_cache.get_or_compute(
            key, lambda: self._score(self._index[key].pairs)
        )

    # ------------------------------------------------------------------
    # approximate fast path (exact=False)
    # ------------------------------------------------------------------
    def _budget(self, budget: int | None) -> int:
        """The effective prefilter budget for one approximate query."""
        budget = self.approx.budget if budget is None else int(budget)
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        return budget

    def _fast_scorer(self):
        """The linker's landmark fast scorer (built lazily, deterministic)."""
        return self.linker.ensure_fast_scorer()

    def _approx_top_k(
        self,
        key: tuple[str, str],
        k: int,
        budget: int | None,
        flipped: bool,
    ) -> tuple[list[tuple[tuple[str, str], int, bool]], np.ndarray]:
        """Prune one platform pair's candidates and rank approximately."""
        index = self._index[key]
        rows = prune_rows(
            index.evidence, index.pairs, self._budget(budget)
        )
        items = [(key, int(row), flipped) for row in rows]
        return self._approx_select(items, max(k, 0))

    def _approx_select(
        self,
        items: list[tuple[tuple[str, str], int, bool]],
        k: int,
    ) -> tuple[list[tuple[tuple[str, str], int, bool]], np.ndarray]:
        """The two-layer approximate ranking over pruned candidates.

        Layer 2 of the fast path: featurize the pruned pool once (exact
        float64 rows), rank it with the float32 landmark scorer, and
        exactly rescore a ``rescore_multiple * k`` short list to place the
        cutoff.  The short list's exact scores are the returned values: the
        decision function is row-stable, so they are the bytes
        ``score_pairs`` gives for the same pairs.  Never touches the exact
        score cache.
        """
        if not items or k == 0:
            return [], np.zeros(0)
        pairs = [self._index[key].pairs[row] for key, row, _ in items]
        x = self._featurize_chunked(pairs)
        fast = self._fast_scorer().score(x)
        shortlist = top_k_indices(
            fast, min(len(items), k * self.approx.rescore_multiple)
        )
        mid = self.linker.score_features(x[shortlist])
        keep = top_k_indices(mid, k)  # already in ranked order
        with self._stats_lock:
            self._approx_queries += 1
            self._approx_pairs_scored += len(items)
        chosen = [items[int(row)] for row in shortlist[keep]]
        return chosen, mid[keep]

    def _scored_links(
        self,
        items: list[tuple[tuple[str, str], int, bool]],
        scores,
    ) -> list[ScoredLink]:
        """Assemble a response's links with one batched distance pass."""
        raw_pairs = [self._index[key].pairs[row] for key, row, _ in items]
        distances = self.behavior_distances(raw_pairs)
        links: list[ScoredLink] = []
        for (key, row, flipped), raw, score, distance in zip(
            items, raw_pairs, scores, distances
        ):
            ref_a, ref_b = raw
            pair = (ref_b, ref_a) if flipped else (ref_a, ref_b)
            links.append(
                ScoredLink(
                    pair=pair,
                    score=float(score),
                    evidence=self._index[key].evidence[row],
                    behavior_distance=distance,
                )
            )
        return links

"""Scatter-gather routing across per-shard serving workers.

:class:`ShardedLinkageService` loads a shard plan
(:func:`repro.shard.planner.plan_shards`) and serves the
:class:`~repro.serving.LinkageService` query interface from K shard worker
processes — the gateway (:mod:`repro.gateway`) cannot tell the two apart.

**Bit-parity by construction.**  Feature rows are row-independent, so each
shard featurizes its slice of a request bit-identically to a single-process
deployment; the router reassembles the rows in request order and scores
them with one call into the plan's scoring head
(:func:`repro.persist.load_scoring_head`), whose decision function is
row-stable.  Same rows, same operands — the bytes
:meth:`repro.serving.LinkageService.score_pairs` returns.

**Degraded reads.**  A shard failure (dead pool, timeout) marks the shard
down; its rows stay NaN in the assembled matrix and score as NaN, and the
healthy rows' bits are unchanged (each row is decided alone).  NaN scores
sort last and are dropped from ``top_k`` / ``link_account`` results, the
response carries a ``shards_unavailable`` marker, and degraded score
arrays are never cached.  Writes routed to a down *owner* shard are
rejected with :class:`ShardUnavailableError` (HTTP 503 at the gateway).

**Writes.**  Ingests/removals broadcast to every live shard with an
ownership mask: the owner runs full candidate maintenance, other shards
ghost-ingest interaction partners of their residents
(:mod:`repro.shard.tasks`).  Accepted mutations append to an in-memory
journal; :meth:`ShardedLinkageService.restart_shard` rebuilds a shard
worker from its artifact and replays the journal, so a crashed shard
rejoins at the epoch it would have reached had it never died.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.approx import ApproxConfig, FastScorer, prune_rows
from repro.persist import load_scoring_head
from repro.serving.service import (
    SCORE_CACHE_SIZE,
    SCORE_CHUNK,
    IngestReport,
    LruCache,
    ScoredLink,
)
from repro.shard import tasks as _tasks
from repro.shard.planner import ShardTopology, load_shard_plan
from repro.utils.ranking import top_k_indices

__all__ = [
    "RouterStats",
    "ShardUnavailableError",
    "ShardedLinkageService",
]

AccountRef = tuple[str, str]
Pair = tuple[AccountRef, AccountRef]


def default_mp_context():
    """The preferred multiprocessing context: ``fork`` when available.

    Forked shard workers start without re-importing the package.
    Platforms without ``fork`` (Windows, and macOS defaults) use their own
    default, for which the initializer argument — a path — pickles
    trivially.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ShardUnavailableError(RuntimeError):
    """A write was routed to a shard that is currently down."""

    def __init__(self, shards):
        self.shards = sorted(shards)
        super().__init__(
            f"shard(s) {self.shards} unavailable; retry after restart"
        )


@dataclass
class RouterStats:
    """Running counters of a sharded deployment (gateway ``/stats``)."""

    queries: int = 0
    pairs_scored: int = 0
    batches: int = 0
    degraded_queries: int = 0
    score_cache_entries: int = 0
    score_cache_hits: int = 0
    score_cache_misses: int = 0
    registry_epoch: int = 0
    accounts_ingested: int = 0
    accounts_removed: int = 0
    ingest_batches: int = 0
    num_shards: int = 0
    shards: list[dict] = field(default_factory=list)
    shards_unavailable: list[int] = field(default_factory=list)
    approx_queries: int = 0
    approx_pairs_scored: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _Entry:
    """One routed candidate pair: the pair, its evidence, its owner shard."""

    pair: Pair
    evidence: frozenset[str]
    owner: int


@dataclass
class _KeyIndex:
    by_left: dict[str, list[int]] = field(default_factory=dict)
    by_right: dict[str, list[int]] = field(default_factory=dict)


class _ShardHandle:
    """The router's view of one shard worker."""

    def __init__(self, index: int, path: str):
        self.index = index
        self.path = path
        self.pool: ProcessPoolExecutor | None = None
        self.inline_state: dict | None = None
        self.alive = False
        self.pid: int | None = None
        self.expected_epoch = 0
        self.restarts = 0
        self.last_error: str | None = None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "path": self.path,
            "alive": self.alive,
            "pid": self.pid,
            "epoch": self.expected_epoch,
            "restarts": self.restarts,
            "last_error": self.last_error,
        }


class ShardedLinkageService:
    """Serve linkage queries by scatter-gather over K shard workers.

    Implements the :class:`~repro.serving.LinkageService` query/mutation
    interface (``score_pairs``, ``top_k``, ``link_account``,
    ``ingest_payloads``, ``remove_account``, ``stats``, ``candidate_pairs``
    …) so :class:`repro.gateway.LinkageGateway` serves it unchanged.

    Parameters
    ----------
    plan:
        A plan directory path or a loaded :class:`ShardTopology`.
    inline:
        Run every shard in-process (sandboxed via
        :func:`repro.shard.tasks.swap_state`) instead of spawning
        worker processes.  For tests and constrained environments; the
        failure-isolation story obviously requires processes.
    request_timeout:
        Seconds to wait on any one shard task before declaring the shard
        down.

    The approximate path's fast scorer comes from the scoring head when
    the plan persisted one, so the router's approximate ranking
    bit-agrees with the single-process service over the same artifact.
    """

    #: lets the gateway distinguish sharded deployments (no /swap, 503s)
    is_sharded = True
    #: Defaults for the approximate path (``top_k(..., exact=False)``):
    #: router-side prefilter budget, rescore window, landmark count.
    approx = ApproxConfig()

    def __init__(
        self,
        plan,
        *,
        inline: bool = False,
        request_timeout: float = 600.0,
    ):
        topology = (
            plan if isinstance(plan, ShardTopology) else load_shard_plan(plan)
        )
        self.topology = topology
        self.inline = inline
        self.request_timeout = request_timeout
        head = load_scoring_head(topology.head_path)
        self._model = head["model"]
        self.feature_names = head["feature_names"]
        self.threshold = head["threshold"]
        self._fast_scorer = head.get("fast_scorer")
        self._assignment = topology.assignment

        self._entries: dict[tuple[str, str], list[_Entry]] = {
            key: [
                _Entry(entry.pair, entry.evidence, entry.owner)
                for entry in entry_list
            ]
            for key, entry_list in topology.entries.items()
        }
        self._owner_of: dict[Pair, int] = {}
        self._index: dict[tuple[str, str], _KeyIndex] = {}
        for key in self._entries:
            self._reindex_key(key)

        self._epoch = topology.base_epoch
        self._journal: list[tuple] = []
        self._score_cache = LruCache(SCORE_CACHE_SIZE)
        self._stats_lock = threading.Lock()
        self._queries = 0
        self._pairs_scored = 0
        self._batches = 0
        self._degraded_queries = 0
        self._accounts_ingested = 0
        self._accounts_removed = 0
        self._ingest_batches = 0
        self._approx_queries = 0
        self._approx_pairs_scored = 0

        self._handles = [
            _ShardHandle(info.index, str(topology.shard_path(info.index)))
            for info in topology.shards
        ]
        try:
            for handle in self._handles:
                self._start_shard(handle)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # shard lifecycle
    # ------------------------------------------------------------------
    def _start_shard(self, handle: _ShardHandle) -> dict:
        """Boot one shard worker from its artifact and health-check it."""
        if self.inline:
            state: dict = {}
            previous = _tasks.swap_state(state)
            try:
                _tasks.init_shard_worker(handle.path)
            finally:
                _tasks.swap_state(previous)
            handle.inline_state = state
        else:
            handle.pool = ProcessPoolExecutor(
                max_workers=1,
                initializer=_tasks.init_shard_worker,
                initargs=(handle.path,),
                mp_context=default_mp_context(),
            )
        health = self._submit(handle, _tasks.shard_health).result(
            timeout=self.request_timeout
        )
        handle.pid = health["pid"]
        handle.expected_epoch = health["epoch"]
        handle.alive = True
        handle.last_error = None
        return health

    def _submit(self, handle: _ShardHandle, fn, *args) -> Future:
        if handle.pool is not None:
            try:
                return handle.pool.submit(fn, *args)
            except Exception as exc:
                # a broken pool rejects at submit time; deliver the failure
                # through the future so every gather path handles it once
                future: Future = Future()
                future.set_exception(exc)
                return future
        future = Future()
        previous = _tasks.swap_state(handle.inline_state)
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # delivered via future, like a pool
            future.set_exception(exc)
        finally:
            _tasks.swap_state(previous)
        return future

    def _mark_down(self, handle: _ShardHandle, exc: BaseException) -> None:
        handle.alive = False
        handle.last_error = f"{type(exc).__name__}: {exc}"
        if handle.pool is not None:
            handle.pool.shutdown(wait=False, cancel_futures=True)
            handle.pool = None
        handle.inline_state = None

    def restart_shard(self, index: int) -> dict:
        """Rebuild one shard worker from its artifact and replay the journal.

        The restarted worker loads the plan-time shard artifact, then
        re-applies every journaled mutation with this shard's ownership
        mask — including mutations accepted while it was down — so it
        rejoins at the epoch it would hold had it never crashed.  Returns
        the post-replay health probe.
        """
        if not 0 <= index < len(self._handles):
            raise KeyError(f"no shard {index}")
        handle = self._handles[index]
        if handle.pool is not None:
            handle.pool.shutdown(wait=False, cancel_futures=True)
            handle.pool = None
        handle.inline_state = None
        handle.alive = False
        self._start_shard(handle)
        for op in self._journal:
            try:
                if op[0] == "ingest":
                    _, refs, payloads = op
                    mask = [
                        self._route_account(ref) == index for ref in refs
                    ]
                    result = self._submit(
                        handle, _tasks.shard_ingest, refs, payloads, mask
                    ).result(timeout=self.request_timeout)
                else:
                    _, ref = op
                    result = self._submit(
                        handle, _tasks.shard_remove, ref
                    ).result(timeout=self.request_timeout)
                handle.expected_epoch = result["epoch"]
            except Exception as exc:
                # a mutation that failed live fails identically on replay;
                # anything else is a real fault and downs the shard again
                if isinstance(exc, (ValueError, KeyError)):
                    continue
                self._mark_down(handle, exc)
                raise
        health = self._submit(handle, _tasks.shard_health).result(
            timeout=self.request_timeout
        )
        handle.expected_epoch = health["epoch"]
        handle.pid = health["pid"]
        handle.restarts += 1
        handle.alive = True
        handle.last_error = None
        return {**health, "restarts": handle.restarts}

    def shards_unavailable(self) -> list[int]:
        """Indexes of shards currently marked down."""
        return [h.index for h in self._handles if not h.alive]

    def close(self) -> None:
        for handle in getattr(self, "_handles", []):
            if handle.pool is not None:
                handle.pool.shutdown(wait=False, cancel_futures=True)
                handle.pool = None
            handle.inline_state = None
            handle.alive = False

    def __enter__(self) -> "ShardedLinkageService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # gateway-compat surface
    # ------------------------------------------------------------------
    @property
    def registry_epoch(self) -> int:
        """Router mutation epoch: one bump per accepted write."""
        return self._epoch

    @property
    def wal(self):
        """Sharded deployments have no single WAL (the journal stands in)."""
        return None

    def close_wal(self) -> None:
        pass

    def platform_pairs(self) -> list[tuple[str, str]]:
        return sorted(self._entries)

    def num_candidates(self) -> int:
        return sum(len(entries) for entries in self._entries.values())

    def candidate_pairs(self, key: tuple[str, str]) -> list[Pair]:
        key = (key[0], key[1])
        if key not in self._entries:
            raise KeyError(f"platform pair {key} was not fitted")
        return [entry.pair for entry in self._entries[key]]

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route_account(self, ref: AccountRef) -> int:
        return self._assignment.shard_of((ref[0], ref[1]))

    def _route_pair(self, pair: Pair) -> int:
        owner = self._owner_of.get(pair)
        if owner is not None:
            return owner
        return self._route_account(pair[0])

    def _reindex_key(self, key: tuple[str, str]) -> None:
        index = _KeyIndex()
        for row, entry in enumerate(self._entries[key]):
            index.by_left.setdefault(entry.pair[0][1], []).append(row)
            index.by_right.setdefault(entry.pair[1][1], []).append(row)
            self._owner_of[entry.pair] = entry.owner
        self._index[key] = index

    # ------------------------------------------------------------------
    # scatter-gather reads
    # ------------------------------------------------------------------
    def _featurize(self, pairs: list[Pair]) -> tuple[np.ndarray, list[int]]:
        """Assembled feature matrix in request order, plus down shards.

        Rows owned by an unavailable shard stay NaN — same matrix shape,
        so healthy rows keep their exact single-shard bits, and NaN
        propagates to exactly the affected scores.
        """
        groups: dict[int, list[int]] = {}
        for row, pair in enumerate(pairs):
            groups.setdefault(self._route_pair(pair), []).append(row)
        x = np.full((len(pairs), len(self.feature_names)), np.nan)
        down: set[int] = set()
        dispatched = []
        for shard_index in sorted(groups):
            handle = self._handles[shard_index]
            rows = groups[shard_index]
            if not handle.alive:
                down.add(shard_index)
                continue
            future = self._submit(
                handle,
                _tasks.shard_featurize,
                [pairs[row] for row in rows],
                handle.expected_epoch,
            )
            dispatched.append((handle, rows, future))
        for handle, rows, future in dispatched:
            try:
                block = future.result(timeout=self.request_timeout)
            except (_tasks.PairNotServed, _tasks.StaleShardEpoch):
                raise
            except Exception as exc:
                self._mark_down(handle, exc)
                down.add(handle.index)
                continue
            x[rows] = block
        return x, sorted(down)

    def _normalize(self, pairs) -> list[Pair]:
        return [
            ((pair[0][0], pair[0][1]), (pair[1][0], pair[1][1]))
            for pair in pairs
        ]

    def score_pairs(self, pairs: list[Pair]) -> np.ndarray:
        """Decision values in request order; NaN for pairs on down shards."""
        with self._stats_lock:
            self._queries += 1
        if not pairs:
            return np.zeros(0)
        pairs = self._normalize(pairs)
        x, down = self._featurize(pairs)
        scores = self._model.decision_function(x)
        with self._stats_lock:
            self._pairs_scored += len(pairs)
            self._batches += -(-len(pairs) // SCORE_CHUNK)
            if down:
                self._degraded_queries += 1
        return scores

    def _cached_scores(self, key: tuple[str, str]) -> np.ndarray:
        """Per-key candidate scores via the LRU; degraded fills not cached."""

        def compute():
            pairs = [entry.pair for entry in self._entries[key]]
            x, down = self._featurize(pairs)
            return self._model.decision_function(x), bool(down)

        scores, degraded = self._score_cache.get_or_compute(key, compute)
        if degraded:
            self._score_cache.invalidate(key)
            with self._stats_lock:
                self._degraded_queries += 1
        return scores

    def _distances(self, pairs: list[Pair]) -> np.ndarray:
        """Behavior distances from each pair's owner shard (NaN when down)."""
        out = np.full(len(pairs), np.nan)
        groups: dict[int, list[int]] = {}
        for row, pair in enumerate(pairs):
            groups.setdefault(self._route_pair(pair), []).append(row)
        dispatched = []
        for shard_index, rows in sorted(groups.items()):
            handle = self._handles[shard_index]
            if not handle.alive:
                continue
            future = self._submit(
                handle, _tasks.shard_distances, [pairs[row] for row in rows]
            )
            dispatched.append((handle, rows, future))
        for handle, rows, future in dispatched:
            try:
                out[rows] = future.result(timeout=self.request_timeout)
            except Exception as exc:
                self._mark_down(handle, exc)
        return out

    def _resolve(
        self, platform_a: str, platform_b: str
    ) -> tuple[tuple[str, str], bool]:
        key = (platform_a, platform_b)
        if key in self._entries:
            return key, False
        key = (platform_b, platform_a)
        if key in self._entries:
            return key, True
        raise KeyError(
            f"platform pair ({platform_a}, {platform_b}) was not fitted"
        )

    def _links(
        self,
        key: tuple[str, str],
        rows: list[int],
        scores: np.ndarray,
        flipped: bool,
    ) -> list[ScoredLink]:
        entries = self._entries[key]
        distances = self._distances([entries[row].pair for row in rows])
        links = []
        for row, distance in zip(rows, distances):
            entry = entries[row]
            pair = (
                (entry.pair[1], entry.pair[0]) if flipped else entry.pair
            )
            links.append(
                ScoredLink(
                    pair=pair,
                    score=float(scores[row]),
                    evidence=entry.evidence,
                    behavior_distance=float(distance),
                )
            )
        return links

    def _ensure_fast_scorer(self) -> FastScorer:
        """The landmark fast scorer for the approximate path.

        Prefer the scoring head's persisted scorer (identical bytes to the
        single-process service over the same artifact); otherwise rebuild
        deterministically from the head model with the default seed — the
        same fallback :meth:`repro.core.HydraLinker.ensure_fast_scorer`
        uses, so both deployments still agree.
        """
        if self._fast_scorer is None:
            defaults = ApproxConfig()
            self._fast_scorer = FastScorer.from_model(
                self._model,
                num_landmarks=defaults.num_landmarks,
                seed=defaults.seed,
                ridge=defaults.ridge,
            )
        return self._fast_scorer

    def _budget(self, budget: int | None) -> int:
        budget = self.approx.budget if budget is None else int(budget)
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        return budget

    def _approx_select(
        self,
        items: list[tuple[tuple[str, str], int, bool]],
        k: int,
    ) -> list[ScoredLink]:
        """Approximate ranking over pruned routed candidates.

        Mirrors the single-process service: one scatter featurizes the
        pruned pool (rows stay bit-identical — row independence), the
        float32 landmark scorer ranks it, and a ``rescore_multiple * k``
        short list is head-scored exactly to place the cutoff; those exact
        scores are returned (the head is row-stable, so they equal
        ``score_pairs`` on the same pairs).  Degraded rows (down
        shards) carry NaN through the fast scorer, sort last, and are
        omitted — the same contract as the exact path.  Results never
        enter the exact score cache.
        """
        if not items or k == 0:
            return []
        pairs = [self._entries[key][row].pair for key, row, _ in items]
        x, down = self._featurize(pairs)
        fast = self._ensure_fast_scorer().score(x)
        shortlist = top_k_indices(
            fast, min(len(items), k * self.approx.rescore_multiple)
        )
        mid = self._model.decision_function(x[shortlist])
        keep = top_k_indices(mid, k)  # ranked order, NaN last
        with self._stats_lock:
            self._approx_queries += 1
            self._approx_pairs_scored += len(items)
            if down:
                self._degraded_queries += 1
        chosen: list[tuple[tuple[str, str], int, bool]] = []
        scores: list[float] = []
        for row, score in zip(shortlist[keep], mid[keep]):
            if np.isnan(score):
                continue
            chosen.append(items[int(row)])
            scores.append(float(score))
        return self._assemble_links(chosen, scores)

    def _assemble_links(
        self,
        items: list[tuple[tuple[str, str], int, bool]],
        scores: list[float],
    ) -> list[ScoredLink]:
        """Build a response's links with one batched distance scatter."""
        entries = [self._entries[key][row] for key, row, _ in items]
        distances = self._distances([entry.pair for entry in entries])
        links: list[ScoredLink] = []
        for (key, row, flipped), entry, score, distance in zip(
            items, entries, scores, distances
        ):
            pair = (
                (entry.pair[1], entry.pair[0]) if flipped else entry.pair
            )
            links.append(
                ScoredLink(
                    pair=pair,
                    score=float(score),
                    evidence=entry.evidence,
                    behavior_distance=float(distance),
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
        """The ``k`` strongest links; pairs on down shards are omitted.

        ``exact=False`` prunes to the top-``budget`` blocking-rule
        survivors at the router, scatter-featurizes only those, ranks with
        the head's landmark fast scorer and exactly rescores the final
        list — approximate cutoff, exact returned scores, same contract
        as :meth:`repro.serving.LinkageService.top_k`.
        """
        with self._stats_lock:
            self._queries += 1
        key, flipped = self._resolve(platform_a, platform_b)
        if not exact:
            entries = self._entries[key]
            rows = prune_rows(
                [entry.evidence for entry in entries],
                [entry.pair for entry in entries],
                self._budget(budget),
            )
            return self._approx_select(
                [(key, int(row), flipped) for row in rows], max(k, 0)
            )
        scores = self._cached_scores(key)
        order = top_k_indices(scores, max(k, 0))
        rows = [int(row) for row in order if not np.isnan(scores[row])]
        return self._links(key, rows, scores, flipped)

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
        """Resolve one account against its routed candidates.

        ``exact=False`` prunes each platform pair's rows for this account
        to the budget's strongest blocking survivors before ranking the
        union through the approximate path (exact rescoring of the final
        list, as in :meth:`top_k`).
        """
        with self._stats_lock:
            self._queries += 1
        found: list[tuple[tuple[str, str], int, bool, float]] = []
        candidates: list[tuple[tuple[str, str], int, bool]] = []
        for key, index in self._index.items():
            if key[0] == platform and (other_platform in (None, key[1])):
                rows, flipped = index.by_left.get(account_id, []), False
            elif key[1] == platform and (other_platform in (None, key[0])):
                rows, flipped = index.by_right.get(account_id, []), True
            else:
                continue
            if not exact:
                entries = self._entries[key]
                pruned = prune_rows(
                    [entry.evidence for entry in entries],
                    [entry.pair for entry in entries],
                    self._budget(budget),
                    rows=rows,
                )
                candidates.extend((key, int(row), flipped) for row in pruned)
                continue
            scores = self._cached_scores(key)
            for row in rows:
                if not np.isnan(scores[row]):
                    found.append((key, row, flipped, float(scores[row])))
        if not exact:
            return self._approx_select(candidates, max(top, 0))
        found.sort(key=lambda item: -item[3])
        found = found[: max(top, 0)]
        return self._assemble_links(
            [(key, row, flipped) for key, row, flipped, _score in found],
            [score for _key, _row, _flipped, score in found],
        )

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def _broadcast_mutation(self, fn, *args) -> dict[int, dict]:
        """Run one mutation task on every live shard; gather results.

        Pool-level failures mark the shard down (its state is journal-
        recoverable); task-level errors re-raise after the sweep so every
        reachable shard saw the same op.
        """
        dispatched = []
        for handle in self._handles:
            if not handle.alive:
                continue
            dispatched.append((handle, self._submit(handle, fn, *args)))
        results: dict[int, dict] = {}
        task_error: BaseException | None = None
        for handle, future in dispatched:
            try:
                results[handle.index] = future.result(
                    timeout=self.request_timeout
                )
            except (ValueError, KeyError, RuntimeError) as exc:
                task_error = task_error or exc
            except Exception as exc:
                self._mark_down(handle, exc)
        if task_error is not None:
            raise task_error
        return results

    def _merge_key(
        self, key: tuple[str, str], snapshots: dict[int, dict]
    ) -> tuple[int, int, list[_Entry]]:
        """Fold per-shard owned candidate state into the routed catalog.

        Surviving entries keep the catalog order; entries dropped by their
        (reporting) owner disappear; new pairs append in shard-index order,
        owned by the shard that created them.  Returns (added, removed,
        added_entries).
        """
        reported = {
            shard: {
                pair: row
                for row, pair in enumerate(snapshot["pairs"])
            }
            for shard, snapshot in snapshots.items()
        }
        old_entries = self._entries[key]
        for entry in old_entries:
            self._owner_of.pop(entry.pair, None)
        merged: list[_Entry] = []
        seen: set[Pair] = set()
        removed = 0
        for entry in old_entries:
            if entry.owner in reported:
                row = reported[entry.owner].get(entry.pair)
                if row is None:
                    removed += 1
                    continue
                evidence = snapshots[entry.owner]["evidence"][row]
                merged.append(_Entry(entry.pair, evidence, entry.owner))
            else:
                merged.append(entry)
            seen.add(entry.pair)
        added_entries: list[_Entry] = []
        for shard in sorted(snapshots):
            snapshot = snapshots[shard]
            for pair, evidence in zip(
                snapshot["pairs"], snapshot["evidence"]
            ):
                if pair not in seen:
                    entry = _Entry(pair, evidence, shard)
                    merged.append(entry)
                    added_entries.append(entry)
                    seen.add(pair)
        self._entries[key] = merged
        self._reindex_key(key)
        self._score_cache.invalidate(key)
        return len(added_entries), removed, added_entries

    def _apply_snapshots(
        self, results: dict[int, dict]
    ) -> tuple[int, int, list[tuple[tuple[str, str], _Entry]]]:
        affected: dict[tuple[str, str], dict[int, dict]] = {}
        for shard, result in results.items():
            for key, snapshot in result.get("keys", {}).items():
                affected.setdefault(key, {})[shard] = snapshot
        added = removed = 0
        new_entries: list[tuple[tuple[str, str], _Entry]] = []
        for key in sorted(affected):
            key_added, key_removed, entries = self._merge_key(
                key, affected[key]
            )
            added += key_added
            removed += key_removed
            new_entries.extend((key, entry) for entry in entries)
        return added, removed, new_entries

    def ingest_payloads(
        self, refs: list[AccountRef], payloads: list[dict], *, score: bool = True
    ) -> IngestReport:
        """Route one ingest batch: owners apply, neighbors ghost-ingest.

        ``payloads`` are JSON payload dicts (:func:`payload_to_json`
        form) — the transport the gateway receives and the journal
        replays.  Raises :class:`ShardUnavailableError` (HTTP 503) when
        any arriving ref's owner shard is down: accepting the write would
        strand it outside the journal's recovery guarantee.
        """
        refs = [(ref[0], ref[1]) for ref in refs]
        if len(payloads) != len(refs):
            raise ValueError(
                f"{len(refs)} refs but {len(payloads)} account payloads"
            )
        down_owners = {
            shard
            for shard in (self._route_account(ref) for ref in refs)
            if not self._handles[shard].alive
        }
        if down_owners:
            raise ShardUnavailableError(down_owners)
        self._journal.append(("ingest", refs, payloads))
        results = {}
        for handle in self._handles:
            if not handle.alive:
                continue
            mask = [
                self._route_account(ref) == handle.index for ref in refs
            ]
            results.update(
                self._broadcast_single(
                    handle,
                    _tasks.shard_ingest,
                    refs,
                    payloads,
                    mask,
                    handle.expected_epoch,
                )
            )
        for shard, result in results.items():
            self._handles[shard].expected_epoch = result["epoch"]
        added, removed, new_entries = self._apply_snapshots(results)
        self._epoch += 1
        with self._stats_lock:
            self._accounts_ingested += len(refs)
            self._ingest_batches += 1
        links: tuple[ScoredLink, ...] = ()
        if score and new_entries:
            links = tuple(
                sorted(
                    self._score_links(new_entries),
                    key=lambda link: -link.score,
                )
            )
        return IngestReport(
            refs=tuple(refs),
            epoch=self._epoch,
            pairs_added=added,
            pairs_removed=removed,
            links=links,
        )

    def _broadcast_single(self, handle, fn, *args) -> dict[int, dict]:
        """One shard's slice of a broadcast mutation (owner masks differ)."""
        future = self._submit(handle, fn, *args)
        try:
            return {
                handle.index: future.result(timeout=self.request_timeout)
            }
        except (ValueError, KeyError, _tasks.StaleShardEpoch):
            raise
        except Exception as exc:
            self._mark_down(handle, exc)
            return {}

    def _score_links(
        self, new_entries: list[tuple[tuple[str, str], _Entry]]
    ) -> list[ScoredLink]:
        by_key: dict[tuple[str, str], list[_Entry]] = {}
        for key, entry in new_entries:
            by_key.setdefault(key, []).append(entry)
        links: list[ScoredLink] = []
        for key, entries in by_key.items():
            pairs = [entry.pair for entry in entries]
            x, _down = self._featurize(pairs)
            scores = self._model.decision_function(x)
            distances = self._distances(pairs)
            for entry, score, distance in zip(entries, scores, distances):
                links.append(
                    ScoredLink(
                        pair=entry.pair,
                        score=float(score),
                        evidence=entry.evidence,
                        behavior_distance=float(distance),
                    )
                )
        return links

    def remove_account(self, ref: AccountRef) -> int:
        """Withdraw one account everywhere it is resident.

        Raises :class:`ShardUnavailableError` when the owner shard is
        down, :class:`KeyError` when no live shard holds the account.
        """
        ref = (ref[0], ref[1])
        owner = self._route_account(ref)
        if not self._handles[owner].alive:
            raise ShardUnavailableError([owner])
        self._journal.append(("remove", ref))
        results = self._broadcast_mutation(_tasks.shard_remove, ref)
        if not results.get(owner, {}).get("applied"):
            # nothing was resident anywhere that matters: undo the journal
            # entry (no shard mutated) and mirror the single-shard KeyError
            applied_anywhere = any(r.get("applied") for r in results.values())
            if not applied_anywhere:
                self._journal.pop()
                raise KeyError(f"{ref} is not served")
        for shard, result in results.items():
            self._handles[shard].expected_epoch = result["epoch"]
        _added, _removed, _entries = self._apply_snapshots(results)
        self._epoch += 1
        with self._stats_lock:
            self._accounts_removed += 1
        return sum(result.get("removed", 0) for result in results.values())

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> RouterStats:
        score_entries = len(self._score_cache)
        score_hits, score_misses = (
            self._score_cache.hits,
            self._score_cache.misses,
        )
        with self._stats_lock:
            return RouterStats(
                queries=self._queries,
                pairs_scored=self._pairs_scored,
                batches=self._batches,
                degraded_queries=self._degraded_queries,
                score_cache_entries=score_entries,
                score_cache_hits=score_hits,
                score_cache_misses=score_misses,
                registry_epoch=self._epoch,
                accounts_ingested=self._accounts_ingested,
                accounts_removed=self._accounts_removed,
                ingest_batches=self._ingest_batches,
                num_shards=len(self._handles),
                shards=[handle.as_dict() for handle in self._handles],
                shards_unavailable=self.shards_unavailable(),
                approx_queries=self._approx_queries,
                approx_pairs_scored=self._approx_pairs_scored,
            )

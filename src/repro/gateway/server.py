"""The asyncio HTTP/JSON gateway in front of a :class:`LinkageService`.

Pure stdlib: an ``asyncio.start_server`` loop speaks enough HTTP/1.1
(keep-alive, ``Content-Length`` bodies, structured JSON errors) to serve
the linkage API over a socket, while every CPU-heavy service call runs on
a small thread pool so the event loop keeps accepting and parsing traffic.

Endpoints
---------
=========  ==================  =================================================
method     path                action
=========  ==================  =================================================
``POST``   ``/score_pairs``    decision values for a pair batch (coalesced)
``GET``    ``/top_k``          strongest links of one platform pair
``POST``   ``/link_account``   resolve one account against its candidates
``POST``   ``/ingest``         absorb accounts (writer; accepts inline payloads)
``DELETE`` ``/account``        withdraw one account from serving (writer)
``POST``   ``/swap``           blue/green cutover to a refit artifact (writer)
``POST``   ``/shards/restart`` rebuild one shard worker + replay (writer)
``GET``    ``/candidates``     platform pairs + sample pairs (loadgen seed)
``GET``    ``/stats``          service counters + gateway metrics
``GET``    ``/healthz``        liveness + registry epoch
``GET``    ``/replicas``       replication topology: per-follower epoch + lag
=========  ==================  =================================================

Replication (:mod:`repro.replica`): a gateway serving a
:class:`~repro.replica.FollowerService` runs a background follow loop
(tail the primary's WAL off-fence, apply under the write fence) and
rejects mutations with 409.  A primary configured with ``read_replicas``
routes a share of its reads to follower gateways through a
:class:`~repro.replica.ReplicaRouter`; the ``X-Min-Epoch`` request
header sets a freshness floor — the router skips followers not known to
have reached it, a follower waits briefly then answers 412, and a read
that executed at ``epoch >= min_epoch`` can never observe older state
because the registry epoch is monotone and checked inside the fence.

The gateway serves a :class:`~repro.shard.ShardedLinkageService` unchanged
(it duck-types the service interface).  Sharded deployments differ in
three visible ways: ``/swap`` is rejected with 409 (rebalance + restart is
the sharded model-update path), writes whose owner shard is down return
503 with ``Retry-After``, and degraded reads carry a
``shards_unavailable`` list next to their (partial) results — scores for
pairs on downed shards surface as ``null``.

Concurrency model — reads coalesce, writes fence:

* ``/score_pairs`` traffic flows through the :class:`MicroBatcher`; a
  flush acquires the :class:`ReadWriteFence` as a *reader* and runs one
  ``score_pairs_grouped`` call on the executor.  Responses are
  bit-identical to uncoalesced calls (see :mod:`repro.gateway.batcher`).
* ``/top_k`` and ``/link_account`` are individual reader dispatches.
* ``/ingest`` and ``DELETE /account`` acquire the fence as the *writer*:
  in-flight readers drain, the mutation runs alone, the registry epoch
  bump becomes visible, then readers resume.  Every response carries the
  epoch it executed against.
* ``/swap`` loads a refit artifact next to the live service, replays the
  WAL delta accumulated since the refit snapshot into it off-fence (reads
  keep flowing), then takes the write fence for the *final* catch-up and
  an atomic cutover at an equal epoch — in-flight requests complete
  against the service (and epoch) they started on, and the WAL handle
  moves to the new service so logged history stays continuous.

Every handler resolves ``self.service`` *inside* its fence acquisition,
so a request that waited out a swap executes against the service that
owns the post-cutover epoch.

Admission control (:mod:`repro.gateway.admission`) caps in-flight work and
abandons deadline-expired requests before they reach the service.
:meth:`LinkageGateway.stop` is graceful: stop accepting, drain the batcher
and in-flight handlers, then release the executor.
:class:`GatewayThread` hosts a gateway on a dedicated event-loop thread for
tests, examples, and the load harness.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
import time
import urllib.parse
from dataclasses import dataclass

from repro.gateway.admission import AdmissionController, GatewayRejected
from repro.gateway.batcher import MicroBatcher, ReadWriteFence
from repro.serving.service import LinkageService
from repro.shard.router import ShardUnavailableError
from repro.wal.faults import trip as _trip_fault
from repro.wal.payload import apply_payload, payload_from_json
from repro.wal.recovery import replay_wal_delta

__all__ = ["GatewayConfig", "GatewayThread", "LinkageGateway"]

_MAX_BODY_BYTES = 8 * 1024 * 1024
_DEADLINE_HEADER = "x-deadline-ms"
_MIN_EPOCH_HEADER = "x-min-epoch"


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs of one gateway instance (all have serviceable defaults)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it back from `gateway.port`
    #: micro-batching window (see :class:`repro.gateway.batcher.MicroBatcher`)
    max_batch_pairs: int = 512
    max_batch_requests: int = 64
    max_wait_ms: float = 2.0
    #: admission control (see :mod:`repro.gateway.admission`)
    max_pending: int = 128
    default_deadline_ms: float | None = None
    retry_after_seconds: float = 0.5
    #: scoring executor threads; >1 lets reads overlap (the service's
    #: caches and counters are lock-protected for exactly this)
    executor_threads: int = 2
    shutdown_grace_seconds: float = 10.0
    #: replication (see :mod:`repro.replica`): follower gateway addresses
    #: eligible to serve this gateway's reads ("host:port" strings)
    read_replicas: tuple = ()
    #: how often a follower gateway polls the primary's WAL
    replica_poll_ms: float = 25.0
    #: how long a follower read with an X-Min-Epoch floor waits for
    #: replication to catch up before answering 412
    min_epoch_wait_ms: float = 1000.0
    #: how long a dead follower sits out before a half-open retry
    replica_retry_dead_seconds: float = 2.0


class LinkageGateway:
    """One HTTP gateway bound to one :class:`LinkageService`."""

    def __init__(
        self, service: LinkageService, config: GatewayConfig | None = None
    ):
        self.service = service
        self.config = config or GatewayConfig()
        self.port: int | None = None  # actual bound port, set by start()
        self._server: asyncio.base_events.Server | None = None
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None
        self._fence = ReadWriteFence()
        self._admission = AdmissionController(
            max_pending=self.config.max_pending,
            default_deadline_ms=self.config.default_deadline_ms,
            retry_after_seconds=self.config.retry_after_seconds,
        )
        self._batcher = MicroBatcher(
            self._dispatch_groups,
            max_batch_pairs=self.config.max_batch_pairs,
            max_batch_requests=self.config.max_batch_requests,
            max_wait_ms=self.config.max_wait_ms,
        )
        self._draining = False
        self._swap_lock = asyncio.Lock()
        #: True once /swap replaced the caller's service with one the
        #: gateway loaded itself — stop() then owns its full teardown
        self._service_swapped = False
        self._router = None
        self._replica_unavailable = ()  # exception class, set with router
        if self.config.read_replicas:
            # lazy import: repro.replica imports the gateway client
            from repro.replica.router import ReplicaRouter, ReplicaUnavailable

            self._router = ReplicaRouter(
                self.config.read_replicas,
                retry_dead_seconds=self.config.replica_retry_dead_seconds,
            )
            self._replica_unavailable = ReplicaUnavailable
        self._follow_task: asyncio.Task | None = None
        self._follow_errors = 0
        self._inflight_conns: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        #: writers whose connection currently has a request mid-handler —
        #: shutdown must not sever these while it unblocks idle ones
        self._busy_writers: set[asyncio.StreamWriter] = set()
        self._started_at: float | None = None
        self._routes = {
            ("POST", "/score_pairs"): self._handle_score_pairs,
            ("GET", "/top_k"): self._handle_top_k,
            ("POST", "/link_account"): self._handle_link_account,
            ("POST", "/ingest"): self._handle_ingest,
            ("DELETE", "/account"): self._handle_remove_account,
            ("POST", "/swap"): self._handle_swap,
            ("POST", "/shards/restart"): self._handle_restart_shard,
            ("GET", "/candidates"): self._handle_candidates,
            ("GET", "/stats"): self._handle_stats,
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/replicas"): self._handle_replicas,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start serving (returns immediately)."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.executor_threads,
            thread_name_prefix="gateway-score",
        )
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        if getattr(self.service, "is_follower", False):
            self._follow_task = asyncio.ensure_future(self._follow_loop())

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, release the executor."""
        if self._server is None:
            return
        self._draining = True
        if self._follow_task is not None:
            self._follow_task.cancel()
            try:
                await self._follow_task
            except asyncio.CancelledError:
                pass
            self._follow_task = None
        self._server.close()
        await self._server.wait_closed()
        await self._batcher.drain()
        for writer in list(self._conn_writers - self._busy_writers):
            # resolve idle keep-alive reads by closing their transports;
            # connections with a request mid-handler keep theirs so the
            # response still reaches the client
            writer.close()
        if self._inflight_conns:
            _done, pending = await asyncio.wait(
                self._inflight_conns,
                timeout=self.config.shutdown_grace_seconds,
            )
            for task in pending:
                task.cancel()
        # every mutation has drained; a clean shutdown must never leave
        # an unsynced WAL tail.  A service the gateway swapped in itself
        # is fully ours to release (pool included).
        release = (
            self.service.close if self._service_swapped
            else self.service.close_wal
        )
        await asyncio.get_running_loop().run_in_executor(None, release)
        if self._router is not None:
            self._router.close()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._server = None

    # ------------------------------------------------------------------
    # dispatch helpers (event-loop side of the fence)
    # ------------------------------------------------------------------
    async def _run_scoring(self, fn, *args):
        """Run one service call on the scoring executor."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    async def _dispatch_groups(self, groups):
        """Batcher callback: score coalesced groups under the read fence."""
        async with self._fence.read():
            epoch = self.service.registry_epoch
            results = await self._run_scoring(
                self.service.score_pairs_grouped, groups
            )
        return results, epoch

    async def _read_call(self, ticket, fn, *args, min_epoch=None):
        """One non-batched reader call (top_k / link_account).

        The deadline re-check happens after the fence is acquired: a read
        that waited out its deadline behind an ingest writer is abandoned
        with 503 instead of burning scoring cycles.  A ``min_epoch``
        freshness floor is enforced *inside* the fence — the epoch is
        monotone, so a response computed at ``epoch >= min_epoch`` can
        never be staler than requested — after an off-fence grace wait
        on followers (:meth:`_await_min_epoch`).
        """
        await self._await_min_epoch(min_epoch)
        async with self._fence.read():
            self._admission.check_deadline(ticket)
            epoch = self.service.registry_epoch
            if min_epoch is not None and epoch < min_epoch:
                raise _Stale(
                    f"serving epoch {epoch} is older than the requested "
                    f"floor {min_epoch}"
                )
            result = await self._run_scoring(fn, *args)
        return result, epoch

    async def _write_call(self, fn, *args):
        """One mutation: exclusive against every reader dispatch."""
        async with self._fence.write():
            result = await self._run_scoring(fn, *args)
            epoch = self.service.registry_epoch
        return result, epoch

    # ------------------------------------------------------------------
    # replication (see repro.replica)
    # ------------------------------------------------------------------
    async def _follow_loop(self) -> None:
        """Follower gateways: tail the primary's WAL and apply deltas.

        ``poll`` (one incremental tail read) runs off-fence; only the
        apply holds the write fence, so reads see the epoch and the
        scores advance atomically — exactly like a local write.
        """
        poll_seconds = max(self.config.replica_poll_ms, 1.0) / 1000.0
        while True:
            try:
                pending = await self._run_scoring(self.service.poll)
                if pending:
                    async with self._fence.write():
                        await self._run_scoring(self.service.apply_pending)
            except asyncio.CancelledError:
                raise
            except Exception:
                # transient races (primary mid-rotation, artifact being
                # rewritten) heal on the next tick; count, don't crash
                self._follow_errors += 1
            await asyncio.sleep(poll_seconds)

    async def _await_min_epoch(self, min_epoch: int | None) -> None:
        """On a follower, give replication a moment to reach the floor.

        Waits *without* holding the read fence (the apply path needs the
        write fence to advance the epoch).  The fenced check in
        :meth:`_read_call` remains the authority; this only converts
        would-be 412s into slightly delayed fresh answers.
        """
        if min_epoch is None or not getattr(self.service, "is_follower",
                                            False):
            return
        deadline = (
            time.monotonic() + self.config.min_epoch_wait_ms / 1000.0
        )
        while self.service.registry_epoch < min_epoch:
            if time.monotonic() >= deadline:
                return
            await asyncio.sleep(
                min(0.005, self.config.replica_poll_ms / 1000.0)
            )

    async def _forward_read(self, op: str, kwargs: dict,
                            min_epoch: int | None):
        """Offer one read to the replica router; None means serve locally.

        Any follower-side failure (dead endpoint, stale for the floor,
        load shedding) falls back to the local service, so a dying
        follower costs latency, never correctness or availability.
        """
        router = self._router
        if router is None or self._draining:
            return None
        endpoint = router.pick(min_epoch)
        if endpoint is None:
            return None
        try:
            return await asyncio.get_running_loop().run_in_executor(
                router.executor, router.call, endpoint, op, kwargs
            )
        except self._replica_unavailable:
            return None

    def _shard_marker(self, payload: dict) -> dict:
        """Annotate a response with the downed-shard list, when degraded."""
        service = self.service
        if getattr(service, "is_sharded", False):
            down = service.shards_unavailable()
            if down:
                payload["shards_unavailable"] = down
        return payload

    # ------------------------------------------------------------------
    # endpoint handlers: (body, query, ticket) -> (status, payload)
    # ------------------------------------------------------------------
    async def _handle_score_pairs(self, body, query, ticket):
        pairs = _parse_pairs(_require(body, "pairs"))
        batch_size = body.get("batch_size")
        if batch_size is not None and (
            not isinstance(batch_size, int) or batch_size < 1
        ):
            raise _BadRequest(f"batch_size must be a positive int, got "
                              f"{batch_size!r}")
        min_epoch = _opt_int_query(query, "min_epoch")
        forwarded = await self._forward_read(
            "score_pairs",
            {"pairs": pairs, "batch_size": batch_size,
             "min_epoch": min_epoch},
            min_epoch,
        )
        if forwarded is not None:
            return 200, forwarded
        if batch_size is None and min_epoch is not None:
            # a freshness floor cannot ride a coalesced dispatch (the
            # flush snapshots one epoch for the whole group); run alone —
            # chunking is identical, so the scores are the same bytes
            scores, epoch = await self._read_call(
                ticket,
                lambda: self.service.score_pairs(pairs),
                min_epoch=min_epoch,
            )
        elif batch_size is None:
            scores, epoch = await self._batcher.submit(
                pairs, guard=lambda: self._admission.check_deadline(ticket)
            )
        else:
            # a custom batch size changes the chunk composition, so it can
            # never share a coalesced dispatch; run it alone
            scores, epoch = await self._read_call(
                ticket,
                lambda: self.service.score_pairs(pairs,
                                                 batch_size=batch_size),
                min_epoch=min_epoch,
            )
        return 200, self._shard_marker({
            # NaN marks a pair whose owner shard is down; JSON says null
            "scores": [None if s != s else float(s) for s in scores],
            "epoch": epoch,
        })

    async def _handle_top_k(self, body, query, ticket):
        platform_a = _require_query(query, "platform_a")
        platform_b = _require_query(query, "platform_b")
        k = _int_query(query, "k", 10)
        # exact=false opts into the approximate path (index-pruned +
        # landmark fast scorer, exact rescoring of the returned list);
        # responses stay epoch-stamped either way, and the approximate
        # path never populates the service's exact score cache
        exact = _bool_query(query, "exact", True)
        budget = _opt_int_query(query, "budget")
        min_epoch = _opt_int_query(query, "min_epoch")
        forwarded = await self._forward_read(
            "top_k",
            {"platform_a": platform_a, "platform_b": platform_b, "k": k,
             "exact": exact, "budget": budget, "min_epoch": min_epoch},
            min_epoch,
        )
        if forwarded is not None:
            return 200, forwarded
        links, epoch = await self._read_call(
            ticket,
            lambda: self.service.top_k(
                platform_a, platform_b, k, exact=exact, budget=budget
            ),
            min_epoch=min_epoch,
        )
        return 200, self._shard_marker(
            {"links": [_link_json(link) for link in links], "epoch": epoch}
        )

    async def _handle_link_account(self, body, query, ticket):
        platform = _require(body, "platform")
        account_id = _require(body, "account_id")
        other = body.get("other_platform")
        top = body.get("top", 5)
        if not isinstance(top, int):
            raise _BadRequest(f"top must be an int, got {top!r}")
        exact = body.get("exact", True)
        if not isinstance(exact, bool):
            raise _BadRequest(f"exact must be a bool, got {exact!r}")
        budget = body.get("budget")
        if budget is not None and not isinstance(budget, int):
            raise _BadRequest(f"budget must be an int, got {budget!r}")
        min_epoch = _opt_int_query(query, "min_epoch")
        forwarded = await self._forward_read(
            "link_account",
            {"platform": platform, "account_id": account_id,
             "other_platform": other, "top": top, "exact": exact,
             "budget": budget, "min_epoch": min_epoch},
            min_epoch,
        )
        if forwarded is not None:
            return 200, forwarded
        links, epoch = await self._read_call(
            ticket,
            lambda: self.service.link_account(
                platform, account_id, other_platform=other, top=top,
                exact=exact, budget=budget,
            ),
            min_epoch=min_epoch,
        )
        return 200, self._shard_marker(
            {"links": [_link_json(link) for link in links], "epoch": epoch}
        )

    def _reject_follower_write(self) -> None:
        # before any parsing side effects: the non-sharded ingest path
        # mutates service.world ahead of add_accounts, so a follower must
        # refuse up front, not rely on the service raising mid-mutation
        if getattr(self.service, "is_follower", False):
            raise _Conflict(
                "this gateway serves a read-only follower replica; send "
                "writes to the primary"
            )

    async def _handle_ingest(self, body, query, ticket):
        self._reject_follower_write()
        refs = [_parse_ref(ref) for ref in _require(body, "refs")]
        score = body.get("score", True)
        raw_accounts = body.get("accounts", [])
        if not isinstance(raw_accounts, list):
            raise _BadRequest("accounts must be a list of account payloads")
        # inline arrivals: full account state rides in the request (see
        # repro.wal.payload), so remote producers need no prior access to
        # the served world; decode errors surface as 400s before the fence
        payloads = [payload_from_json(raw) for raw in raw_accounts]

        if getattr(self.service, "is_sharded", False):
            # sharded ingest routes each payload to its owner shard, so
            # every arriving ref must carry its payload inline
            if len(payloads) != len(refs):
                raise _BadRequest(
                    f"sharded ingest needs one account payload per ref "
                    f"({len(refs)} refs, {len(payloads)} payloads)"
                )
            for ref, payload in zip(refs, payloads):
                if payload.ref != ref:
                    raise _BadRequest(
                        f"account payload describes {payload.ref}, listed "
                        f"as {ref}"
                    )

            def mutate():
                return self.service.ingest_payloads(
                    refs, raw_accounts, score=bool(score)
                )

        else:

            def mutate():
                service = self.service
                for payload in payloads:
                    apply_payload(service.world, payload)
                return service.add_accounts(refs, score=bool(score))

        report, epoch = await self._write_call(mutate)
        return 200, {
            "refs": [list(ref) for ref in report.refs],
            "epoch": report.epoch,
            "pairs_added": report.pairs_added,
            "pairs_removed": report.pairs_removed,
            "links": [_link_json(link) for link in report.links],
        }

    async def _handle_remove_account(self, body, query, ticket):
        self._reject_follower_write()
        ref = _parse_ref(_require(body, "ref"))
        removed, epoch = await self._write_call(
            lambda: self.service.remove_account(ref)
        )
        return 200, {"ref": list(ref), "pairs_removed": removed,
                     "epoch": epoch}

    def _load_standby(self, artifact: str) -> LinkageService:
        """Load a refit artifact as a standby service, mirroring the live
        service's serving knobs (a swap changes the model, not capacity)."""
        live = self.service
        return LinkageService(
            type(live.linker).load(artifact),
            batch_size=live.batch_size,
            summary_cache_size=live._summaries.maxsize,
            score_cache_size=live._score_cache.maxsize,
            workers=live.workers,
            shard_size=live.shard_size,
        )

    async def _handle_swap(self, body, query, ticket):
        """Blue/green cutover: catch a refit artifact up, then switch.

        ``since_epoch`` names the live epoch the refit snapshot already
        contains (defaults to the epoch persisted in the artifact); WAL
        records after it are replayed into the standby.  The bulk replay
        runs off-fence — reads keep flowing on the live service — and
        only the final catch-up of mutations that landed meanwhile holds
        the write fence, so the unavailability window is one fence
        acquisition plus the tail replay, not the whole delta.
        """
        self._reject_follower_write()
        if getattr(self.service, "is_sharded", False):
            raise _Conflict(
                "sharded deployments do not support /swap; plan against "
                "the refit artifact and restart the shard fleet instead"
            )
        artifact = _require(body, "artifact")
        if not isinstance(artifact, str) or not artifact:
            raise _BadRequest(f"artifact must be a path, got {artifact!r}")
        since = body.get("since_epoch")
        if since is not None and not isinstance(since, int):
            raise _BadRequest(f"since_epoch must be an int, got {since!r}")
        if self._swap_lock.locked():
            raise _Conflict("another swap is already in progress")
        async with self._swap_lock:
            from repro.persist import artifact_exists

            if not artifact_exists(artifact):
                raise _BadRequest(f"no artifact at {artifact}")
            blue = self.service
            previous_epoch = blue.registry_epoch
            green = await self._run_scoring(
                lambda: self._load_standby(artifact)
            )
            replayed = 0
            try:
                applied = since if since is not None else green.registry_epoch
                wal = blue.wal
                if wal is not None:
                    applied, count = await self._run_scoring(
                        lambda: replay_wal_delta(
                            green, wal, after_epoch=applied
                        )
                    )
                    replayed += count
                async with self._fence.write():
                    # writers are fenced out: one last catch-up of records
                    # that landed during the warm replay, then the epochs
                    # must meet exactly
                    if wal is not None:
                        applied, count = await self._run_scoring(
                            lambda: replay_wal_delta(
                                green, wal, after_epoch=applied
                            )
                        )
                        replayed += count
                    if green.registry_epoch != blue.registry_epoch:
                        raise _Conflict(
                            f"standby caught up to epoch "
                            f"{green.registry_epoch} but the live service "
                            f"is at {blue.registry_epoch}; mutations are "
                            f"not reaching the WAL"
                        )
                    _trip_fault("swap.cutover")
                    if wal is not None:
                        blue.detach_wal()
                        green.attach_wal(wal)
                    self.service = green
                    self._service_swapped = True
            except BaseException:
                await self._run_scoring(green.close)
                raise
            # the displaced service releases its pool off-fence; its WAL
            # handle already moved, so close() cannot touch the log
            await self._run_scoring(blue.close)
            return 200, {
                "status": "swapped",
                "artifact": artifact,
                "epoch": green.registry_epoch,
                "previous_epoch": previous_epoch,
                "records_replayed": replayed,
            }

    async def _handle_restart_shard(self, body, query, ticket):
        """Rebuild one shard worker from its artifact + journal replay."""
        if not getattr(self.service, "is_sharded", False):
            raise _Conflict("not a sharded deployment")
        shard = _require(body, "shard")
        if not isinstance(shard, int):
            raise _BadRequest(f"shard must be an int, got {shard!r}")
        health, epoch = await self._write_call(
            lambda: self.service.restart_shard(shard)
        )
        return 200, {"shard": shard, "health": health, "epoch": epoch}

    async def _handle_candidates(self, body, query, ticket):
        limit = _int_query(query, "limit", 200)

        def build_catalog() -> dict:
            sample: list = []
            for key in self.service.platform_pairs():
                if len(sample) >= limit:
                    break
                for pair in self.service.candidate_pairs(key):
                    if len(sample) >= limit:
                        break
                    sample.append([list(pair[0]), list(pair[1])])
            return {
                "platform_pairs": [list(key) for key in
                                   self.service.platform_pairs()],
                "num_candidates": self.service.num_candidates(),
                "pairs": sample,
            }

        # under the read fence like every other read (a concurrent ingest
        # writer must never be observed mid-mutation) and on the executor
        # so the event loop never blocks on service state
        async with self._fence.read():
            catalog = await self._run_scoring(build_catalog)
            catalog["epoch"] = self.service.registry_epoch
        return 200, catalog

    async def _handle_stats(self, body, query, ticket):
        # service.stats() takes the service's locks; keep that wait off the
        # event loop (a cache fill can hold a cache lock for seconds).  The
        # gateway-side snapshots are loop-owned state and stay here.
        service = self.service  # one resolution: a swap must not mix services
        service_stats = await self._run_scoring(service.stats)
        gateway_stats = {
            "uptime_seconds": (
                time.monotonic() - self._started_at
                if self._started_at is not None else 0.0
            ),
            "draining": self._draining,
            "batcher": self._batcher.snapshot(),
            "admission": self._admission.snapshot(),
        }
        if self._router is not None:
            gateway_stats["replica_router"] = self._router.snapshot()
        if getattr(service, "is_follower", False):
            gateway_stats["follow_errors"] = self._follow_errors
        payload = self._shard_marker({
            "service": service_stats.as_dict(),
            "gateway": gateway_stats,
            "epoch": service.registry_epoch,
        })
        if getattr(service, "is_follower", False):
            payload["replica"] = await self._run_scoring(
                lambda: service.status(poll=False)
            )
        return 200, payload

    async def _handle_replicas(self, body, query, ticket):
        """Replication topology status.

        On a primary with a router: one row per configured follower
        (probed concurrently — a SIGKILLed follower reports
        ``alive: False`` with its last known epoch rather than hanging
        the endpoint) plus router counters.  On a follower: its own
        tailer status (epoch, lag in records and seconds, cursor, pid).
        """
        payload: dict = {"epoch": self.service.registry_epoch,
                         "replicas": []}
        if getattr(self.service, "is_follower", False):
            payload["replica"] = await self._run_scoring(
                self.service.status
            )
        if self._router is not None:
            payload["replicas"] = await asyncio.get_running_loop(
            ).run_in_executor(self._router.executor, self._router.status)
            payload["router"] = self._router.snapshot()
        return 200, payload

    async def _handle_healthz(self, body, query, ticket):
        status = "draining" if self._draining else "ok"
        payload: dict = {
            "status": status,
            "epoch": self.service.registry_epoch,
        }
        if getattr(self.service, "is_follower", False):
            # poll=False: report the frontier the follow loop already
            # knows without racing it for a tail read
            payload["replica"] = await self._run_scoring(
                lambda: self.service.status(poll=False)
            )
        return (503 if self._draining else 200), payload

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._inflight_conns.add(task)
        self._conn_writers.add(writer)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _MalformedRequest as bad:
                    await _write_response(
                        writer, 400, _error_json("bad_request", str(bad)),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                self._busy_writers.add(writer)
                try:
                    keep_alive = await self._respond(writer, *request)
                finally:
                    self._busy_writers.discard(writer)
                if not keep_alive:
                    break
                if self._draining:
                    # the drain closed idle transports while this request
                    # ran; don't park in readline on a dying gateway
                    break
        except (
            ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError
        ):
            pass
        finally:
            self._inflight_conns.discard(task)
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _respond(self, writer, method, path, query, headers, raw_body):
        """Route one parsed request; returns whether to keep the connection."""
        keep_alive = headers.get("connection", "keep-alive") != "close"
        endpoint = f"{method} {path}"
        handler = self._routes.get((method, path))
        if handler is None:
            await _write_response(
                writer, 404,
                _error_json("not_found", f"no route for {endpoint}"),
                keep_alive,
            )
            return keep_alive
        if self._draining and path != "/healthz":
            await _write_response(
                writer, 503,
                _error_json("draining", "gateway is shutting down"),
                keep_alive=False,  # header must match the close below
                retry_after=self.config.retry_after_seconds,
            )
            return False
        try:
            body = json.loads(raw_body) if raw_body else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            await _write_response(
                writer, 400,
                _error_json("bad_json", "request body is not valid JSON"),
                keep_alive,
            )
            return keep_alive
        if not isinstance(body, dict):
            await _write_response(
                writer, 400,
                _error_json("bad_json", "request body must be a JSON object"),
                keep_alive,
            )
            return keep_alive

        deadline_ms = None
        if _DEADLINE_HEADER in headers:
            try:
                deadline_ms = float(headers[_DEADLINE_HEADER])
            except ValueError:
                await _write_response(
                    writer, 400,
                    _error_json(
                        "bad_deadline",
                        f"{_DEADLINE_HEADER} must be a number",
                    ),
                    keep_alive,
                )
                return keep_alive
        if _MIN_EPOCH_HEADER in headers:
            # surface the freshness floor to handlers through the query
            # dict (same string-typed channel either way); the header
            # wins over a query parameter
            if not headers[_MIN_EPOCH_HEADER].lstrip("-").isdigit():
                await _write_response(
                    writer, 400,
                    _error_json(
                        "bad_min_epoch",
                        f"{_MIN_EPOCH_HEADER} must be an integer",
                    ),
                    keep_alive,
                )
                return keep_alive
            query = dict(query)
            query["min_epoch"] = headers[_MIN_EPOCH_HEADER]
        try:
            ticket = self._admission.admit(endpoint, deadline_ms)
        except GatewayRejected as rejected:
            await _write_response(
                writer, rejected.status,
                _error_json(rejected.code, rejected.message),
                keep_alive, retry_after=rejected.retry_after,
            )
            return keep_alive

        rejected_after_admit = False
        retry_after = None
        status, payload = 500, _error_json("internal_error", "not handled")
        try:
            status, payload = await handler(body, query, ticket)
        except GatewayRejected as rejected:  # deadline expired in queue
            rejected_after_admit = True
            self._admission.release_rejected(ticket)
            await _write_response(
                writer, rejected.status,
                _error_json(rejected.code, rejected.message),
                keep_alive, retry_after=rejected.retry_after,
            )
            return keep_alive
        except _BadRequest as bad:
            status, payload = 400, _error_json("bad_request", str(bad))
        except _Conflict as conflict:
            status, payload = 409, _error_json("conflict", str(conflict))
        except _Stale as stale:
            # the client's min_epoch floor: a replicated client retries
            # against the primary, which is never stale
            status, payload = 412, _error_json("stale_replica", str(stale))
        except ShardUnavailableError as down:
            # the write's owner shard is down: recoverable via
            # /shards/restart, so tell the client to come back
            status = 503
            payload = _error_json("shard_unavailable", str(down))
            payload["shards_unavailable"] = down.shards
            retry_after = self.config.retry_after_seconds
        except KeyError as missing:
            status, payload = 404, _error_json(
                "not_found", str(missing.args[0] if missing.args else missing)
            )
        except ValueError as invalid:
            status, payload = 400, _error_json("bad_request", str(invalid))
        except Exception as exc:  # pragma: no cover - defensive
            status, payload = 500, _error_json(
                "internal_error", f"{type(exc).__name__}: {exc}"
            )
        finally:
            if not rejected_after_admit:
                # 4xx/5xx after admission are errors; 2xx complete cleanly
                self._admission.complete(ticket, error="error" in payload)
        await _write_response(
            writer, status, payload, keep_alive, retry_after=retry_after
        )
        return keep_alive


# ----------------------------------------------------------------------
# request/response helpers
# ----------------------------------------------------------------------
class _BadRequest(Exception):
    """Malformed request payload -> HTTP 400."""


class _Conflict(Exception):
    """A swap that cannot proceed right now -> HTTP 409."""


class _Stale(Exception):
    """A read's X-Min-Epoch floor cannot be met here -> HTTP 412."""


class _MalformedRequest(Exception):
    """Unparseable HTTP framing -> 400 and close the connection."""


def _error_json(code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message}}


def _require(body: dict, key: str):
    if key not in body:
        raise _BadRequest(f"missing required field {key!r}")
    return body[key]


def _require_query(query: dict, key: str) -> str:
    if key not in query:
        raise _BadRequest(f"missing required query parameter {key!r}")
    return query[key]


def _int_query(query: dict, key: str, default: int) -> int:
    if key not in query:
        return default
    try:
        return int(query[key])
    except ValueError:
        raise _BadRequest(f"query parameter {key!r} must be an int") from None


def _opt_int_query(query: dict, key: str) -> int | None:
    if key not in query:
        return None
    try:
        return int(query[key])
    except ValueError:
        raise _BadRequest(f"query parameter {key!r} must be an int") from None


def _bool_query(query: dict, key: str, default: bool) -> bool:
    if key not in query:
        return default
    value = query[key].lower()
    if value in ("true", "1"):
        return True
    if value in ("false", "0"):
        return False
    raise _BadRequest(f"query parameter {key!r} must be true or false")


def _parse_ref(raw) -> tuple[str, str]:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(isinstance(part, str) for part in raw)
    ):
        raise _BadRequest(
            f"account ref must be [platform, account_id], got {raw!r}"
        )
    return (raw[0], raw[1])


def _parse_pairs(raw) -> list:
    if not isinstance(raw, list):
        raise _BadRequest("pairs must be a list of [left_ref, right_ref]")
    pairs = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise _BadRequest(
                f"each pair must be [left_ref, right_ref], got {item!r}"
            )
        pairs.append((_parse_ref(item[0]), _parse_ref(item[1])))
    return pairs


def _link_json(link) -> dict:
    distance = link.behavior_distance
    return {
        "pair": [list(link.pair[0]), list(link.pair[1])],
        "score": link.score,
        "evidence": sorted(link.evidence),
        # a degraded sharded read can lose the owner mid-flight: the score
        # is already computed but the distance probe fails -> null
        "behavior_distance": None if distance != distance else distance,
    }


async def _read_request(reader):
    """Parse one HTTP/1.1 request; None on a cleanly closed connection."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line or request_line in (b"\r\n", b"\n"):
        return None
    try:
        method, target, _version = request_line.decode("ascii").split()
    except (ValueError, UnicodeDecodeError):
        raise _MalformedRequest("unparseable request line") from None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _MalformedRequest("Content-Length must be an integer") from None
    if not 0 <= length <= _MAX_BODY_BYTES:
        raise _MalformedRequest(
            f"Content-Length must be within [0, {_MAX_BODY_BYTES}]"
        ) from None
    body = await reader.readexactly(length) if length else b""
    parsed = urllib.parse.urlsplit(target)
    query = {
        key: values[-1]
        for key, values in urllib.parse.parse_qs(parsed.query).items()
    }
    return method.upper(), parsed.path, query, headers, body


async def _write_response(
    writer, status, payload, keep_alive, *, retry_after=None
):
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               409: "Conflict", 412: "Precondition Failed",
               429: "Too Many Requests",
               500: "Internal Server Error", 503: "Service Unavailable"}
    data = json.dumps(payload).encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(data)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if retry_after is not None:
        head.append(f"Retry-After: {max(retry_after, 0.0):.3f}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + data)
    await writer.drain()


# ----------------------------------------------------------------------
# background hosting (tests, examples, the load harness)
# ----------------------------------------------------------------------
class GatewayThread:
    """Host a gateway on a dedicated event-loop thread.

    The pattern every non-CLI consumer needs: stand a gateway up next to
    synchronous code (a test, an example, the load generator), talk to it
    over HTTP, tear it down deterministically::

        with GatewayThread(service, GatewayConfig()) as gateway:
            client = GatewayClient(gateway.host, gateway.port)
            ...

    ``start`` blocks until the port is bound; ``stop`` runs the gateway's
    graceful shutdown on its loop and joins the thread.
    """

    def __init__(
        self, service: LinkageService, config: GatewayConfig | None = None
    ):
        self._gateway = LinkageGateway(service, config)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self._gateway.config.host

    @property
    def port(self) -> int:
        if self._gateway.port is None:
            raise RuntimeError("gateway thread is not started")
        return self._gateway.port

    @property
    def gateway(self) -> LinkageGateway:
        return self._gateway

    def start(self) -> "GatewayThread":
        if self._thread is not None:
            raise RuntimeError("gateway thread already started")
        self._thread = threading.Thread(
            target=self._run, name="gateway-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self._gateway.start()
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop_event.wait()
        await self._gateway.stop()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "GatewayThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

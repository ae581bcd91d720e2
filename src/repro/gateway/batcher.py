"""Micro-batch request coalescing and the reader/writer epoch fence.

The serving stack is fastest when it is fed arrays: one
``score_pairs_grouped`` call over 64 coalesced requests featurizes their
pairs in a handful of array-at-a-time sweeps, where 64 individual
``score_pairs`` calls would pay the featurization fixed costs 64 times
(see :mod:`repro.features.batch`).  :class:`MicroBatcher` converts
concurrent per-request traffic into exactly that shape: score requests
accumulate in a pending window and flush as **one** batched service call
when the window fills (``max_batch_pairs`` pairs or ``max_batch_requests``
requests) or ages out (``max_wait_ms`` after the first request arrived) —
whichever comes first.  Because
:meth:`~repro.serving.service.LinkageService.score_pairs_grouped` chunks
each group's kernel decision exactly as a standalone call would, a
response is **bit-identical** whether or not the request was coalesced.

Flushes are serialized: while one batch executes, newcomers accumulate in
the next window, so load adaptively deepens batches instead of piling up
executor tasks (the same property that makes group-commit work).

:class:`ReadWriteFence` is the concurrency contract between queries and
online mutations: any number of read dispatches may overlap, but an
``ingest``/``remove`` writer waits for in-flight readers to drain, blocks
new readers while it waits (no writer starvation), and runs alone.  Every
read executes against exactly one registry epoch — the one its response
reports — and a mutation's epoch bump is observed by every subsequent
read, never by a concurrent one mid-flight.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Awaitable, Callable

__all__ = ["MicroBatcher", "ReadWriteFence"]


class ReadWriteFence:
    """An asyncio readers-writer fence with writer priority.

    ``async with fence.read()`` admits any number of concurrent readers
    while no writer is active *or waiting*; ``async with fence.write()``
    waits for active readers to drain and then runs exclusively.  Writers
    block new readers as soon as they start waiting, so a steady read load
    cannot starve a mutation.
    """

    def __init__(self):
        self._cond = asyncio.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextlib.asynccontextmanager
    async def read(self):
        async with self._cond:
            while self._writer_active or self._writers_waiting:
                await self._cond.wait()
            self._active_readers += 1
        try:
            yield
        finally:
            async with self._cond:
                self._active_readers -= 1
                if self._active_readers == 0:
                    self._cond.notify_all()

    @contextlib.asynccontextmanager
    async def write(self):
        async with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    await self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            async with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class _PendingRequest:
    """One queued score request: its pairs, future, and deadline gate."""

    __slots__ = ("pairs", "future", "guard", "enqueued_at")

    def __init__(self, pairs, future, guard):
        self.pairs = pairs
        self.future = future
        self.guard = guard
        self.enqueued_at = time.monotonic()


class MicroBatcher:
    """Coalesce concurrent score requests into batched service dispatches.

    Parameters
    ----------
    dispatch:
        ``async (groups: list[list[pair]]) -> (results, epoch)`` — provided
        by the server; acquires the read fence and runs
        ``score_pairs_grouped`` on the scoring executor.  ``results`` must
        align with ``groups``.
    max_batch_pairs:
        Flush as soon as the pending window holds this many pairs.
    max_batch_requests:
        Flush as soon as this many requests are pending.
    max_wait_ms:
        Flush this long after the *first* request entered an empty window —
        the latency price any request pays for the chance to be coalesced.
    """

    def __init__(
        self,
        dispatch: Callable[[list], Awaitable[tuple[list, int]]],
        *,
        max_batch_pairs: int = 512,
        max_batch_requests: int = 64,
        max_wait_ms: float = 2.0,
    ):
        if max_batch_pairs < 1:
            raise ValueError(
                f"max_batch_pairs must be >= 1, got {max_batch_pairs}"
            )
        if max_batch_requests < 1:
            raise ValueError(
                f"max_batch_requests must be >= 1, got {max_batch_requests}"
            )
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self._dispatch = dispatch
        self.max_batch_pairs = max_batch_pairs
        self.max_batch_requests = max_batch_requests
        self.max_wait_ms = max_wait_ms
        self._pending: list[_PendingRequest] = []
        self._pending_pairs = 0
        self._timer: asyncio.TimerHandle | None = None
        self._flusher: asyncio.Task | None = None
        # observability
        self.requests_submitted = 0
        self.batches_dispatched = 0
        self.requests_coalesced = 0  # requests sharing a batch with others
        self.pairs_dispatched = 0
        self.largest_batch_requests = 0
        #: summed per-request delay between enqueue and batch dispatch —
        #: the latency price paid for coalescing
        self.batch_wait_seconds = 0.0

    async def submit(self, pairs: list, guard=None) -> tuple[object, int]:
        """Queue one score request; resolves to ``(scores, epoch)``.

        ``guard`` is an optional zero-argument callable re-checked at
        dispatch time (the admission controller's deadline check): when it
        raises, the request is dropped from the batch and the exception
        becomes the caller's result — expired work never reaches the
        service.
        """
        self.requests_submitted += 1
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append(_PendingRequest(pairs, future, guard))
        self._pending_pairs += len(pairs)
        if (
            self._pending_pairs >= self.max_batch_pairs
            or len(self._pending) >= self.max_batch_requests
        ):
            self._arm_flush()
        elif self._timer is None:
            self._timer = loop.call_later(
                self.max_wait_ms / 1e3, self._arm_flush
            )
        return await future

    def _arm_flush(self) -> None:
        """Ensure the flusher task is running; it drains pending windows."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._flusher is None or self._flusher.done():
            self._flusher = asyncio.get_running_loop().create_task(
                self._flush_loop()
            )

    async def _flush_loop(self) -> None:
        """Dispatch pending windows one batch at a time.

        Serialized batches are the backpressure mechanism: while a batch is
        on the executor, new arrivals pile into the next window, so a burst
        turns into fewer, deeper dispatches instead of a task flood.
        """
        while self._pending:
            if self._timer is not None:
                # taking the window now supersedes its age-out timer
                self._timer.cancel()
                self._timer = None
            batch = self._pending
            self._pending = []
            self._pending_pairs = 0
            live: list[_PendingRequest] = []
            for request in batch:
                if request.future.cancelled():
                    continue
                if request.guard is not None:
                    try:
                        request.guard()
                    except BaseException as exc:  # deadline / shutdown
                        if not request.future.done():
                            request.future.set_exception(exc)
                        continue
                live.append(request)
            if not live:
                continue
            self.batches_dispatched += 1
            if len(live) > 1:
                self.requests_coalesced += len(live)
            self.largest_batch_requests = max(
                self.largest_batch_requests, len(live)
            )
            self.pairs_dispatched += sum(len(r.pairs) for r in live)
            dispatched_at = time.monotonic()
            self.batch_wait_seconds += sum(
                dispatched_at - request.enqueued_at for request in live
            )
            try:
                results, epoch = await self._dispatch(
                    [request.pairs for request in live]
                )
            except BaseException as exc:
                for request in live:
                    if not request.future.done():
                        request.future.set_exception(exc)
            else:
                for request, scores in zip(live, results):
                    if not request.future.done():
                        request.future.set_result((scores, epoch))

    async def drain(self) -> None:
        """Flush everything pending and wait for the flusher to go idle."""
        if self._pending:
            self._arm_flush()
        if self._flusher is not None:
            await self._flusher

    def snapshot(self) -> dict:
        """The JSON-ready coalescing metrics block."""
        dispatched = self.batches_dispatched
        return {
            "max_batch_pairs": self.max_batch_pairs,
            "max_batch_requests": self.max_batch_requests,
            "max_wait_ms": self.max_wait_ms,
            "requests_submitted": self.requests_submitted,
            "batches_dispatched": dispatched,
            "requests_coalesced": self.requests_coalesced,
            "pairs_dispatched": self.pairs_dispatched,
            "largest_batch_requests": self.largest_batch_requests,
            "mean_requests_per_batch": (
                self.requests_submitted / dispatched if dispatched else 0.0
            ),
            "mean_batch_wait_ms": (
                self.batch_wait_seconds * 1e3 / self.requests_submitted
                if self.requests_submitted else 0.0
            ),
        }

"""Tests for the HTTP serving gateway (:mod:`repro.gateway`).

Unit layers (fence, batcher, admission) run against stub dispatches on a
private event loop; the HTTP layers run a real gateway on a background
thread and talk to it through :class:`GatewayClient`.  The heart of the
module is the concurrency-correctness suite: mixed concurrent
``score_pairs`` / ``top_k`` / ``ingest`` traffic through the gateway must
produce responses **bit-identical** to the same operations replayed
sequentially against a bare :class:`LinkageService`, with every response's
``registry_epoch`` proving which side of the writer fence it executed on.
"""

import asyncio
import pickle
import threading
import time

import numpy as np
import pytest

from repro.core import HydraLinker
from repro.datagen import WorldConfig, generate_world
from repro.eval.harness import make_label_split
from repro.gateway import (
    AdmissionController,
    GatewayClient,
    GatewayConfig,
    GatewayError,
    GatewayRejected,
    GatewayThread,
    MicroBatcher,
    ReadWriteFence,
    WorkloadMix,
    plan_workload,
    run_load,
)
from repro.serving import LinkageService, holdout_split
from repro.socialnet import transplant_account

PLATFORM_PAIRS = [("facebook", "twitter")]


@pytest.fixture(scope="module")
def fitted_blob():
    """(pickled fitted linker, full world, held-out refs) for the module.

    The linker is fitted on the world *minus* two held-out accounts per
    platform, so ingest tests can replay genuine arrivals.  Tests unpickle
    private clones — the blob itself is never mutated.
    """
    world = generate_world(WorldConfig(num_persons=20, seed=33))
    base, held = holdout_split(world, 2)
    split = make_label_split(base, PLATFORM_PAIRS, seed=33)
    linker = HydraLinker(seed=33, num_topics=8, max_lda_docs=1500)
    linker.fit(
        base, split.labeled_positive, split.labeled_negative, PLATFORM_PAIRS
    )
    return pickle.dumps(linker), world, held


def _clone_service(fitted_blob, **kwargs) -> LinkageService:
    blob, _, _ = fitted_blob
    kwargs.setdefault("batch_size", 64)
    return LinkageService(pickle.loads(blob), **kwargs)


def _transplant_held(fitted_blob, service) -> list:
    _, world, held = fitted_blob
    return [
        transplant_account(world, service.world, platform, account_id)
        for platform, account_id in held
    ]


@pytest.fixture(scope="module")
def live_gateway(fitted_blob):
    """A read-only gateway + its service, shared by the HTTP read tests."""
    service = _clone_service(fitted_blob)
    with GatewayThread(service, GatewayConfig(max_wait_ms=1.0)) as gateway:
        yield gateway, service


def _candidate_pairs(service):
    key = PLATFORM_PAIRS[0]
    return list(service.linker.candidates_[key].pairs)


# ----------------------------------------------------------------------
# ReadWriteFence
# ----------------------------------------------------------------------
class TestReadWriteFence:
    def test_readers_overlap(self):
        async def main():
            fence = ReadWriteFence()
            active = {"now": 0, "peak": 0}

            async def reader():
                async with fence.read():
                    active["now"] += 1
                    active["peak"] = max(active["peak"], active["now"])
                    await asyncio.sleep(0.01)
                    active["now"] -= 1

            await asyncio.gather(*[reader() for _ in range(5)])
            return active["peak"]

        assert asyncio.run(main()) == 5

    def test_writer_excludes_readers_and_has_priority(self):
        async def main():
            fence = ReadWriteFence()
            order: list[str] = []

            async def long_reader():
                async with fence.read():
                    order.append("r1-in")
                    await asyncio.sleep(0.02)
                    order.append("r1-out")

            async def writer():
                await asyncio.sleep(0.005)  # start while r1 holds the fence
                async with fence.write():
                    order.append("w-in")
                    await asyncio.sleep(0.01)
                    order.append("w-out")

            async def late_reader():
                await asyncio.sleep(0.01)  # arrives while the writer waits
                async with fence.read():
                    order.append("r2-in")

            await asyncio.gather(long_reader(), writer(), late_reader())
            return order

        order = asyncio.run(main())
        # the writer drains r1, runs alone, and beats the later reader in
        assert order == ["r1-in", "r1-out", "w-in", "w-out", "r2-in"]


# ----------------------------------------------------------------------
# MicroBatcher
# ----------------------------------------------------------------------
class _StubDispatch:
    """Counts dispatches; scores every pair with its own index."""

    def __init__(self, delay: float = 0.0, epoch: int = 0):
        self.calls: list[list] = []
        self.delay = delay
        self.epoch = epoch

    async def __call__(self, groups):
        self.calls.append(groups)
        if self.delay:
            await asyncio.sleep(self.delay)
        return [list(range(len(group))) for group in groups], self.epoch


class TestMicroBatcher:
    def test_concurrent_requests_coalesce_into_one_dispatch(self):
        async def main():
            dispatch = _StubDispatch(delay=0.005)
            batcher = MicroBatcher(dispatch, max_wait_ms=5.0)
            results = await asyncio.gather(
                *[batcher.submit([f"p{i}a", f"p{i}b"]) for i in range(6)]
            )
            return dispatch, batcher, results

        dispatch, batcher, results = asyncio.run(main())
        assert len(dispatch.calls) == 1
        assert len(dispatch.calls[0]) == 6
        assert all(scores == [0, 1] and epoch == 0
                   for scores, epoch in results)
        snap = batcher.snapshot()
        assert snap["batches_dispatched"] == 1
        assert snap["requests_coalesced"] == 6
        assert snap["largest_batch_requests"] == 6

    def test_results_route_back_to_their_requests(self):
        async def main():
            async def dispatch(groups):
                return [[f"{len(group)}-pairs"] * len(group)
                        for group in groups], 7

            batcher = MicroBatcher(dispatch, max_wait_ms=2.0)
            sizes = [1, 3, 2]
            results = await asyncio.gather(
                *[batcher.submit([object()] * size) for size in sizes]
            )
            return sizes, results

        sizes, results = asyncio.run(main())
        for size, (scores, epoch) in zip(sizes, results):
            assert scores == [f"{size}-pairs"] * size
            assert epoch == 7

    def test_pair_budget_triggers_immediate_flush(self):
        async def main():
            dispatch = _StubDispatch()
            batcher = MicroBatcher(
                dispatch, max_batch_pairs=4, max_wait_ms=10_000.0
            )
            # 2+2 pairs hit the budget: flush fires without the timer
            await asyncio.gather(
                batcher.submit(["a", "b"]), batcher.submit(["c", "d"])
            )
            return dispatch

        dispatch = asyncio.run(main())
        assert len(dispatch.calls) == 1

    def test_request_budget_triggers_immediate_flush(self):
        async def main():
            dispatch = _StubDispatch()
            batcher = MicroBatcher(
                dispatch, max_batch_requests=3, max_wait_ms=10_000.0
            )
            await asyncio.gather(*[batcher.submit(["x"]) for _ in range(3)])
            return dispatch

        dispatch = asyncio.run(main())
        assert len(dispatch.calls) == 1

    def test_timer_flushes_a_lone_request(self):
        async def main():
            dispatch = _StubDispatch()
            batcher = MicroBatcher(dispatch, max_wait_ms=1.0)
            start = time.monotonic()
            await batcher.submit(["only"])
            return dispatch, time.monotonic() - start

        dispatch, elapsed = asyncio.run(main())
        assert len(dispatch.calls) == 1
        assert elapsed < 1.0  # the 1ms window, not the 10s default timeout

    def test_dispatch_error_propagates_to_every_request(self):
        async def main():
            async def dispatch(groups):
                raise RuntimeError("scoring executor died")

            batcher = MicroBatcher(dispatch, max_wait_ms=1.0)
            results = await asyncio.gather(
                batcher.submit(["a"]), batcher.submit(["b"]),
                return_exceptions=True,
            )
            return results

        results = asyncio.run(main())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_guard_rejection_drops_only_the_expired_request(self):
        async def main():
            dispatch = _StubDispatch()

            def expired():
                raise GatewayRejected(503, "deadline_exceeded", "too late")

            batcher = MicroBatcher(dispatch, max_wait_ms=1.0)
            results = await asyncio.gather(
                batcher.submit(["a", "b"], guard=expired),
                batcher.submit(["c"]),
                return_exceptions=True,
            )
            return dispatch, results

        dispatch, results = asyncio.run(main())
        assert isinstance(results[0], GatewayRejected)
        assert results[1] == ([0], 0)
        # the expired request's pairs never reached the service
        assert dispatch.calls == [[["c"]]]

    def test_invalid_config_rejected(self):
        async def noop(groups):
            return [[] for _ in groups], 0

        with pytest.raises(ValueError):
            MicroBatcher(noop, max_batch_pairs=0)
        with pytest.raises(ValueError):
            MicroBatcher(noop, max_batch_requests=0)
        with pytest.raises(ValueError):
            MicroBatcher(noop, max_wait_ms=-1.0)


# ----------------------------------------------------------------------
# AdmissionController
# ----------------------------------------------------------------------
class TestAdmission:
    def test_queue_full_rejects_with_429(self):
        controller = AdmissionController(
            max_pending=2, retry_after_seconds=0.25
        )
        tickets = [controller.admit("POST /score_pairs") for _ in range(2)]
        with pytest.raises(GatewayRejected) as rejected:
            controller.admit("POST /score_pairs")
        assert rejected.value.status == 429
        assert rejected.value.code == "queue_full"
        assert rejected.value.retry_after == 0.25
        controller.complete(tickets[0])
        controller.admit("POST /score_pairs")  # a slot came back

    def test_deadline_expiry_is_503_and_counted(self):
        controller = AdmissionController(max_pending=4)
        ticket = controller.admit("POST /score_pairs", deadline_ms=0.0)
        time.sleep(0.002)
        with pytest.raises(GatewayRejected) as rejected:
            controller.check_deadline(ticket)
        assert rejected.value.status == 503
        assert rejected.value.code == "deadline_exceeded"
        controller.release_rejected(ticket)
        snap = controller.snapshot()
        endpoint = snap["endpoints"]["POST /score_pairs"]
        assert endpoint["rejected_deadline"] == 1
        assert snap["pending"] == 0

    def test_no_deadline_never_expires(self):
        controller = AdmissionController(max_pending=4)
        ticket = controller.admit("GET /top_k")
        controller.check_deadline(ticket)  # no deadline -> no exception
        controller.complete(ticket)

    def test_latency_and_counters_recorded(self):
        controller = AdmissionController(max_pending=4)
        ticket = controller.admit("GET /top_k")
        time.sleep(0.001)
        controller.complete(ticket)
        error_ticket = controller.admit("GET /top_k")
        controller.complete(error_ticket, error=True)
        endpoint = controller.snapshot()["endpoints"]["GET /top_k"]
        assert endpoint["requests"] == 2
        assert endpoint["completed"] == 1
        assert endpoint["errors"] == 1
        assert endpoint["latency"]["count"] == 2
        assert endpoint["latency"]["p50_ms"] > 0


# ----------------------------------------------------------------------
# HTTP endpoints (read-only, shared gateway)
# ----------------------------------------------------------------------
class TestGatewayHTTP:
    def test_healthz(self, live_gateway):
        gateway, _ = live_gateway
        with GatewayClient(gateway.host, gateway.port) as client:
            health = client.healthz()
        assert health == {"status": "ok", "epoch": 0}

    def test_score_pairs_bit_identical_to_bare_service(self, live_gateway):
        gateway, service = live_gateway
        pairs = _candidate_pairs(service)[:9]
        with GatewayClient(gateway.host, gateway.port) as client:
            response = client.score_pairs(pairs)
        assert np.array_equal(
            np.array(response["scores"]), service.score_pairs(pairs)
        )
        assert response["epoch"] == 0

    def test_score_pairs_explicit_batch_size(self, live_gateway):
        gateway, service = live_gateway
        pairs = _candidate_pairs(service)[:7]
        with GatewayClient(gateway.host, gateway.port) as client:
            response = client.score_pairs(pairs, batch_size=3)
        assert np.array_equal(
            np.array(response["scores"]),
            service.score_pairs(pairs, batch_size=3),
        )

    def test_top_k_matches_bare_service(self, live_gateway):
        gateway, service = live_gateway
        with GatewayClient(gateway.host, gateway.port) as client:
            response = client.top_k("facebook", "twitter", k=5)
        expected = service.top_k("facebook", "twitter", k=5)
        assert len(response["links"]) == len(expected)
        for got, want in zip(response["links"], expected):
            assert got["pair"] == [list(want.pair[0]), list(want.pair[1])]
            assert got["score"] == want.score
            assert got["evidence"] == sorted(want.evidence)
            assert got["behavior_distance"] == want.behavior_distance

    def test_link_account_matches_bare_service(self, live_gateway):
        gateway, service = live_gateway
        account = _candidate_pairs(service)[0][0]
        with GatewayClient(gateway.host, gateway.port) as client:
            response = client.link_account(account[0], account[1], top=4)
        expected = service.link_account(account[0], account[1], top=4)
        assert [link["score"] for link in response["links"]] == [
            link.score for link in expected
        ]

    def test_candidates_catalog(self, live_gateway):
        gateway, service = live_gateway
        with GatewayClient(gateway.host, gateway.port) as client:
            catalog = client.candidates(limit=5)
        assert catalog["platform_pairs"] == [["facebook", "twitter"]]
        assert catalog["num_candidates"] == service.num_candidates()
        assert len(catalog["pairs"]) == 5

    def test_stats_structure(self, live_gateway):
        gateway, service = live_gateway
        with GatewayClient(gateway.host, gateway.port) as client:
            client.score_pairs(_candidate_pairs(service)[:2])
            stats = client.stats()
        assert stats["service"]["queries"] >= 1
        batcher = stats["gateway"]["batcher"]
        assert batcher["requests_submitted"] >= 1
        admission = stats["gateway"]["admission"]
        assert "POST /score_pairs" in admission["endpoints"]
        assert admission["endpoints"]["POST /score_pairs"]["latency"][
            "count"
        ] >= 1
        assert stats["epoch"] == 0

    def test_unknown_route_is_404(self, live_gateway):
        gateway, _ = live_gateway
        with GatewayClient(gateway.host, gateway.port) as client:
            with pytest.raises(GatewayError) as error:
                client._request("GET", "/nope", None)
        assert error.value.status == 404
        assert error.value.code == "not_found"

    def test_unknown_platform_pair_is_404(self, live_gateway):
        gateway, _ = live_gateway
        with GatewayClient(gateway.host, gateway.port) as client:
            with pytest.raises(GatewayError) as error:
                client.top_k("facebook", "myspace", k=3)
        assert error.value.status == 404

    def test_missing_field_is_400(self, live_gateway):
        gateway, _ = live_gateway
        with GatewayClient(gateway.host, gateway.port) as client:
            with pytest.raises(GatewayError) as error:
                client._request("POST", "/score_pairs", {"not_pairs": []})
        assert error.value.status == 400
        assert error.value.code == "bad_request"

    def test_malformed_pair_is_400(self, live_gateway):
        gateway, _ = live_gateway
        with GatewayClient(gateway.host, gateway.port) as client:
            with pytest.raises(GatewayError) as error:
                client._request(
                    "POST", "/score_pairs", {"pairs": [["only-one-side"]]}
                )
        assert error.value.status == 400

    def test_bad_json_body_is_400(self, live_gateway):
        gateway, _ = live_gateway
        import http.client

        conn = http.client.HTTPConnection(
            gateway.host, gateway.port, timeout=10
        )
        try:
            conn.request(
                "POST", "/score_pairs", body="{nope",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_malformed_content_length_is_400(self, live_gateway):
        gateway, _ = live_gateway
        import http.client

        conn = http.client.HTTPConnection(
            gateway.host, gateway.port, timeout=10
        )
        try:
            conn.putrequest("POST", "/score_pairs")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_expired_deadline_is_503(self, live_gateway):
        gateway, service = live_gateway
        pairs = _candidate_pairs(service)[:2]
        with GatewayClient(gateway.host, gateway.port) as client:
            with pytest.raises(GatewayError) as error:
                client.score_pairs(pairs, deadline_ms=0.0)
        assert error.value.status == 503
        assert error.value.code == "deadline_exceeded"
        assert error.value.retry_after is not None

    def test_expired_deadline_applies_to_top_k_too(self, live_gateway):
        gateway, _ = live_gateway
        with GatewayClient(gateway.host, gateway.port) as client:
            with pytest.raises(GatewayError) as error:
                client.top_k("facebook", "twitter", k=3, deadline_ms=0.0)
        assert error.value.status == 503
        assert error.value.code == "deadline_exceeded"

    def test_queue_full_is_429_with_retry_after(self, fitted_blob):
        service = _clone_service(fitted_blob)
        config = GatewayConfig(
            max_pending=1, max_wait_ms=300.0, retry_after_seconds=0.125
        )
        pairs = _candidate_pairs(service)[:2]
        with GatewayThread(service, config) as gateway:
            slow_result: dict = {}

            def slow_request():
                with GatewayClient(gateway.host, gateway.port) as client:
                    # parks in the 300ms coalescing window, holding the
                    # single admission slot
                    slow_result["scores"] = client.score_pairs(pairs)

            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.1)
            with GatewayClient(gateway.host, gateway.port) as client:
                with pytest.raises(GatewayError) as error:
                    client.score_pairs(pairs)
            thread.join()
        assert error.value.status == 429
        assert error.value.code == "queue_full"
        assert error.value.retry_after == 0.125
        assert "scores" in slow_result  # the parked request still completed


# ----------------------------------------------------------------------
# writer path over HTTP
# ----------------------------------------------------------------------
class TestGatewayWriterPath:
    def test_ingest_and_remove_over_http(self, fitted_blob):
        service = _clone_service(fitted_blob)
        refs = _transplant_held(fitted_blob, service)
        with GatewayThread(service) as gateway:
            with GatewayClient(gateway.host, gateway.port) as client:
                report = client.ingest(refs)
                assert report["epoch"] == 1
                assert report["refs"] == [list(ref) for ref in refs]
                assert report["pairs_added"] >= len(report["links"]) >= 0
                assert client.healthz()["epoch"] == 1

                removed = client.remove_account(refs[0])
                assert removed["epoch"] == 2
                assert removed["pairs_removed"] >= 0
                stats = client.stats()
                assert stats["service"]["accounts_ingested"] == len(refs)
                assert stats["service"]["accounts_removed"] == 1

    def test_ingest_unregistered_account_is_client_error(self, fitted_blob):
        service = _clone_service(fitted_blob)
        with GatewayThread(service) as gateway:
            with GatewayClient(gateway.host, gateway.port) as client:
                with pytest.raises(GatewayError) as error:
                    client.ingest([("twitter", "tw_never_registered")])
        assert error.value.status in (400, 404)


# ----------------------------------------------------------------------
# concurrent correctness: gateway traffic == sequential bare replay
# ----------------------------------------------------------------------
class TestConcurrentParity:
    def test_mixed_concurrent_traffic_bit_identical_to_sequential_replay(
        self, fitted_blob
    ):
        """The satellite contract, in three phases.

        A gateway serves clone A while a bare service over clone B (same
        pickled bytes) answers sequentially.  Concurrent reads race an
        ingest through the gateway; every response's epoch must identify
        the fence side it ran on, and its payload must equal the bare
        service's answer computed sequentially at that epoch — bit for
        bit.  No response may observe a torn (mid-mutation) state.
        """
        service = _clone_service(fitted_blob)
        refs = _transplant_held(fitted_blob, service)
        bare = _clone_service(fitted_blob)
        bare_refs = _transplant_held(fitted_blob, bare)
        assert refs == bare_refs

        pairs = _candidate_pairs(service)
        slices = [pairs[i::4] for i in range(4)]

        # -- sequential bare replay: before the ingest ...
        pre = {
            "scores": [bare.score_pairs(chunk) for chunk in slices],
            "top_k": self._links(bare.top_k("facebook", "twitter", k=8)),
        }
        # ... and after (replaying the identical mutation)
        bare.add_accounts(bare_refs, score=False)
        grown = _candidate_pairs(bare)
        post = {
            "scores": [bare.score_pairs(chunk) for chunk in slices],
            "top_k": self._links(bare.top_k("facebook", "twitter", k=8)),
            "new_pairs": [
                pair for pair in grown if pair not in set(pairs)
            ],
        }

        observations: list[tuple[str, int, object, object]] = []
        lock = threading.Lock()

        def observe(kind, payload, epoch, key=None):
            with lock:
                observations.append((kind, epoch, key, payload))

        def score_worker(index: int, phase_gate: threading.Event):
            with GatewayClient(gateway.host, gateway.port) as client:
                for _ in range(3):
                    response = client.score_pairs(slices[index])
                    observe(
                        "score", np.array(response["scores"]),
                        response["epoch"], index,
                    )
                    phase_gate.wait(0.001)

        def top_k_worker(phase_gate: threading.Event):
            with GatewayClient(gateway.host, gateway.port) as client:
                for _ in range(3):
                    response = client.top_k("facebook", "twitter", k=8)
                    observe(
                        "top_k", response["links"], response["epoch"]
                    )
                    phase_gate.wait(0.001)

        def ingest_worker(phase_gate: threading.Event):
            phase_gate.wait(0.01)  # let reads get in flight first
            with GatewayClient(gateway.host, gateway.port) as client:
                report = client.ingest(refs, score=False)
                observe("ingest", report["pairs_added"], report["epoch"])

        gate = threading.Event()
        with GatewayThread(service, GatewayConfig()) as gateway:
            workers = (
                [threading.Thread(target=score_worker, args=(i, gate))
                 for i in range(4)]
                + [threading.Thread(target=top_k_worker, args=(gate,)),
                   threading.Thread(target=ingest_worker, args=(gate,))]
            )
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            # phase 3: quiesced post-ingest reads, including the new pairs
            with GatewayClient(gateway.host, gateway.port) as client:
                final_top = client.top_k("facebook", "twitter", k=8)
                final_scores = (
                    client.score_pairs(post["new_pairs"])
                    if post["new_pairs"] else None
                )

        epochs = {epoch for _, epoch, _, _ in observations}
        assert epochs <= {0, 1}
        assert any(kind == "ingest" for kind, *_ in observations)
        for kind, epoch, key, payload in observations:
            if kind == "score":
                expected = (pre if epoch == 0 else post)["scores"][key]
                assert np.array_equal(payload, expected), (
                    f"concurrent score (epoch {epoch}) diverged from the "
                    "sequential replay"
                )
            elif kind == "top_k":
                expected = (pre if epoch == 0 else post)["top_k"]
                assert payload == expected, (
                    f"concurrent top_k (epoch {epoch}) diverged from the "
                    "sequential replay"
                )
            else:
                assert epoch == 1  # the one mutation produced epoch 1

        assert final_top["epoch"] == 1
        assert final_top["links"] == post["top_k"]
        if final_scores is not None:
            assert np.array_equal(
                np.array(final_scores["scores"]),
                bare.score_pairs(post["new_pairs"]),
            )

    @staticmethod
    def _links(links) -> list[dict]:
        """ScoredLinks in the gateway's JSON shape (for exact comparison)."""
        return [
            {
                "pair": [list(link.pair[0]), list(link.pair[1])],
                "score": link.score,
                "evidence": sorted(link.evidence),
                "behavior_distance": link.behavior_distance,
            }
            for link in links
        ]


# ----------------------------------------------------------------------
# load harness
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_plan_workload_is_deterministic_and_mixed(self):
        catalog = {
            "platform_pairs": [["facebook", "twitter"]],
            "pairs": [
                [["facebook", f"fa{i}"], ["twitter", f"tw{i}"]]
                for i in range(10)
            ],
        }
        mix = WorkloadMix(score_pairs=0.6, top_k=0.2, link_account=0.2)
        ops_a = plan_workload(catalog, mix=mix, num_requests=60, seed=4)
        ops_b = plan_workload(catalog, mix=mix, num_requests=60, seed=4)
        assert ops_a == ops_b
        kinds = {op.kind for op in ops_a}
        assert kinds == {"score", "top_k", "link"}

    def test_plan_workload_validates_inputs(self):
        with pytest.raises(ValueError):
            plan_workload({"pairs": [], "platform_pairs": []})
        with pytest.raises(ValueError):
            plan_workload(
                {"pairs": [[["a", "1"], ["b", "2"]]],
                 "platform_pairs": [["a", "b"]]},
                mix=WorkloadMix(churn=1.0),
            )

    def test_closed_loop_run_against_live_gateway(self, live_gateway):
        gateway, _ = live_gateway
        with GatewayClient(gateway.host, gateway.port) as client:
            catalog = client.candidates(limit=40)
        ops = plan_workload(
            catalog,
            mix=WorkloadMix(score_pairs=0.7, top_k=0.2, link_account=0.1),
            num_requests=40,
            pairs_per_request=2,
            seed=9,
        )
        report = run_load(
            gateway.host, gateway.port, ops, mode="closed", concurrency=4
        )
        assert report.succeeded == 40
        assert report.rejected == 0 and report.errors == 0
        assert report.latency.count == 40
        assert report.requests_per_sec > 0
        summary = report.latency.summary()
        assert summary["p99_ms"] >= summary["p50_ms"] > 0
        assert set(report.per_op) <= {"score", "top_k", "link"}

    def test_open_loop_run_against_live_gateway(self, live_gateway):
        gateway, _ = live_gateway
        with GatewayClient(gateway.host, gateway.port) as client:
            catalog = client.candidates(limit=20)
        ops = plan_workload(
            catalog, mix=WorkloadMix(1.0, 0.0, 0.0), num_requests=20,
            pairs_per_request=2, seed=2,
        )
        report = run_load(
            gateway.host, gateway.port, ops,
            mode="open", rate=400.0, concurrency=4,
        )
        assert report.succeeded == 20
        assert report.mode == "open" and report.rate == 400.0
        # scheduled arrivals: 20 requests at 400/s span >= ~50ms
        assert report.seconds >= 0.045

    def test_run_load_validates_inputs(self):
        with pytest.raises(ValueError):
            run_load("h", 1, [], mode="closed")
        ops = [object()]
        with pytest.raises(ValueError):
            run_load("h", 1, ops, mode="open", rate=None)
        with pytest.raises(ValueError):
            run_load("h", 1, ops, mode="nope")
        with pytest.raises(ValueError):
            run_load("h", 1, ops, concurrency=0)


# ----------------------------------------------------------------------
# graceful shutdown
# ----------------------------------------------------------------------
class TestShutdown:
    def test_stop_drains_and_rejects_new_traffic(self, fitted_blob):
        service = _clone_service(fitted_blob)
        gateway = GatewayThread(service).start()
        host, port = gateway.host, gateway.port
        with GatewayClient(host, port) as client:
            client.score_pairs(_candidate_pairs(service)[:2])
        gateway.stop()
        with pytest.raises((GatewayError, OSError)):
            GatewayClient(host, port, timeout=2.0).healthz()

    def test_restartable_service_after_gateway_stop(self, fitted_blob):
        service = _clone_service(fitted_blob)
        pairs = _candidate_pairs(service)[:3]
        with GatewayThread(service) as gateway:
            with GatewayClient(gateway.host, gateway.port) as client:
                first = client.score_pairs(pairs)["scores"]
        # the service object survives its gateway and can host another
        with GatewayThread(service) as gateway:
            with GatewayClient(gateway.host, gateway.port) as client:
                second = client.score_pairs(pairs)["scores"]
        assert first == second

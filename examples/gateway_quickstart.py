"""The HTTP gateway end to end: serve, coalesce, ingest, observe.

HYDRA's serving story so far lived in-process; this example puts the
network front-end (:mod:`repro.gateway`) through its whole repertoire:

1. fit HYDRA on a small world and wrap it in a
   :class:`~repro.serving.LinkageService`;
2. stand an HTTP gateway up on a background event-loop thread;
3. fire **concurrent** client calls at it — the micro-batcher coalesces
   them into one array-at-a-time service call per flush, whose responses
   are bit-identical to standalone calls;
4. ingest a held-out account over HTTP (the writer fence drains readers,
   the registry epoch bumps);
5. print ``/stats``: per-endpoint latency percentiles, coalescing
   metrics, admission counters.

Run:  python examples/gateway_quickstart.py
"""

import threading

from repro import HydraLinker, WorldConfig, generate_world
from repro.gateway import GatewayClient, GatewayConfig, GatewayThread
from repro.serving import LinkageService, holdout_split
from repro.socialnet import transplant_account


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Fit on a world minus one "future" account per platform.
    # ------------------------------------------------------------------
    world = generate_world(WorldConfig(num_persons=24, seed=5))
    base, held_refs = holdout_split(world, 1)
    true_pairs = [
        (("facebook", a), ("twitter", b))
        for a, b in base.true_pairs("facebook", "twitter")
    ]
    positives = true_pairs[:8]
    negatives = [
        (true_pairs[i][0], true_pairs[(i + 9) % len(true_pairs)][1])
        for i in range(10)
    ]
    linker = HydraLinker(missing_strategy="core", seed=5, num_topics=10,
                         max_lda_docs=2500)
    linker.fit(base, positives, negatives)
    service = LinkageService(linker)

    # ------------------------------------------------------------------
    # 2. An HTTP gateway on a background thread (port 0 = pick free).
    # ------------------------------------------------------------------
    config = GatewayConfig(max_wait_ms=2.0, max_pending=64)
    with GatewayThread(service, config) as gateway:
        print(f"gateway listening on http://{gateway.host}:{gateway.port}")
        with GatewayClient(gateway.host, gateway.port) as client:
            print(f"healthz: {client.healthz()}")

            # ----------------------------------------------------------
            # 3. Concurrent clients; the batcher coalesces their requests.
            # ----------------------------------------------------------
            catalog = client.candidates(limit=60)
            pairs = [
                (tuple(pair[0]), tuple(pair[1]))
                for pair in catalog["pairs"]
            ]

            def fire(index: int) -> None:
                with GatewayClient(gateway.host, gateway.port) as worker:
                    chunk = pairs[index * 6 : (index + 1) * 6]
                    response = worker.score_pairs(chunk)
                    strongest = max(response["scores"])
                    print(f"  client {index}: {len(chunk)} pairs scored, "
                          f"strongest {strongest:.2f} "
                          f"(epoch {response['epoch']})")

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(8)
            ]
            print("\n8 concurrent score_pairs calls:")
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            top = client.top_k("facebook", "twitter", k=3)
            print("\ntop 3 links:")
            for link in top["links"]:
                print(f"  {link['pair'][0][1]} <-> {link['pair'][1][1]}  "
                      f"score={link['score']:.2f}")

            # ----------------------------------------------------------
            # 4. A new account arrives: register it, then ingest over HTTP.
            # ----------------------------------------------------------
            refs = [
                transplant_account(world, service.world, platform, account_id)
                for platform, account_id in held_refs
            ]
            report = client.ingest(refs)
            print(f"\ningested {len(report['refs'])} accounts over HTTP -> "
                  f"epoch {report['epoch']}, "
                  f"{report['pairs_added']} new candidate pairs")
            for link in report["links"][:3]:
                print(f"  new link {link['pair'][0][1]} <-> "
                      f"{link['pair'][1][1]}  score={link['score']:.2f}")

            # ----------------------------------------------------------
            # 5. What the gateway observed.
            # ----------------------------------------------------------
            stats = client.stats()
            batcher = stats["gateway"]["batcher"]
            print(f"\ncoalescing: {batcher['requests_submitted']} requests "
                  f"-> {batcher['batches_dispatched']} dispatches "
                  f"(largest batch {batcher['largest_batch_requests']} "
                  f"requests)")
            endpoints = stats["gateway"]["admission"]["endpoints"]
            print("per-endpoint p50/p99 latency (ms):")
            for endpoint, metrics in endpoints.items():
                latency = metrics["latency"]
                print(f"  {endpoint:22s} {latency['p50_ms']:7.2f}  "
                      f"{latency['p99_ms']:7.2f}  "
                      f"({metrics['completed']} completed)")
            print(f"registry epoch: {stats['epoch']}")


if __name__ == "__main__":
    main()

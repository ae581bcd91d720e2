"""The benchmark's own load generator: op planner + ``http.client`` driver.

Deliberately independent of ``repro.gateway.loadgen`` / ``GatewayClient``,
which belong to the program under test.  Every request is a closed-loop
call on a keep-alive connection: the caller waits for the reply before it
sends the next one.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from bench.spans import Tracer

__all__ = [
    "Connection",
    "Sample",
    "plan_churn",
    "plan_score_requests",
    "digest",
    "run_score_phase",
    "run_churn_phase",
    "percentile",
]

PAIRS_PER_REQUEST = 8
# the planned head of every score connection that the op digest and the
# bit-equality check cover; the rest of the stream continues the same RNG
PINNED_SCORE_REQUESTS = 32


def digest(value) -> str:
    """SHA-256 of the canonical JSON form of ``value``."""
    raw = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode()).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


@dataclass
class Sample:
    """One request as the driver saw it."""

    kind: str
    status: int
    started: float
    latency_ms: float
    client_ms: float
    request_bytes: int
    response_bytes: int
    payload: dict | None = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        return self.status == 200


class Connection:
    """One keep-alive HTTP/1.1 connection with driver-side clocks."""

    def __init__(self, port: int, tracer: Tracer):
        self.port = port
        self.tracer = tracer
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def close(self) -> None:
        self._conn.close()

    def call(self, kind: str, method: str, path: str, body=None,
             group: str | None = None) -> Sample:
        """Send one request and wait for its reply.

        A transport error counts as a failed request (status 0); the
        connection is re-opened so the next request still runs.
        """
        with self.tracer.span("driver.request", group) as whole:
            with self.tracer.span("driver.encode") as encode:
                data = None if body is None else json.dumps(body).encode()
                headers = {"Content-Type": "application/json"} if data else {}
            try:
                with self.tracer.span("gateway.wire"):
                    self._conn.request(method, path, body=data, headers=headers)
                    response = self._conn.getresponse()
                    raw = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                self._conn.close()
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=60
                )
                status, raw = 0, b""
            with self.tracer.span("driver.decode") as decode:
                try:
                    payload = json.loads(raw) if raw else None
                except ValueError:
                    status, payload = 0, None
        return Sample(
            kind=kind,
            status=status,
            started=whole.start,
            latency_ms=whole.seconds * 1e3,
            client_ms=(encode.seconds + decode.seconds) * 1e3,
            request_bytes=len(data or b""),
            response_bytes=len(raw),
            payload=payload,
        )


# ----------------------------------------------------------------------
# op planning: everything a run sends is a function of the seed
# ----------------------------------------------------------------------
def plan_score_requests(seed: int, connection: int, catalogue: list):
    """Endless stream of ``/score_pairs`` bodies for one connection."""
    rng = random.Random(f"{seed}:score:{connection}")
    while True:
        yield {"pairs": rng.sample(catalogue, PAIRS_PER_REQUEST)}


def plan_churn(seed: int, held: list, payloads: list, resident: list,
               cycles: int, reads: int) -> list[tuple]:
    """The fixed write/read cycle: ``(kind, method, path, body)`` per op.

    ingest a held-out account -> link it (first read after the epoch bump)
    -> ``reads`` warm reads of resident accounts -> delete it -> one read
    (first after a removal) -> ``reads`` warm reads.
    """
    rng = random.Random(f"{seed}:churn")

    def link(kind: str, ref) -> tuple:
        return (kind, "POST", "/link_account",
                {"platform": ref[0], "account_id": ref[1]})

    ops: list[tuple] = []
    for ref, payload in zip(held[:cycles], payloads[:cycles]):
        ops.append(("ingest", "POST", "/ingest",
                    {"refs": [list(ref)], "accounts": [payload],
                     "score": False}))
        ops.append(link("fresh_link", ref))
        ops.extend(link("read", rng.choice(resident)) for _ in range(reads))
        ops.append(("remove", "DELETE", "/account", {"ref": list(ref)}))
        ops.append(link("after_remove_link", rng.choice(resident)))
        ops.extend(link("read", rng.choice(resident)) for _ in range(reads))
    return ops


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def run_score_phase(port: int, seed: int, catalogue: list, *, connections: int,
                    warmup_s: float, measure_s: float, tracer: Tracer):
    """Closed loop of ``connections`` callers posting ``/score_pairs``.

    Returns ``(samples, seconds, pinned)``: every sample that started after
    the warm-up, the time from the end of the warm-up to the last reply, and
    per connection the first ``PINNED_SCORE_REQUESTS`` ``(pairs, scores)``
    for the bit-equality check.
    """
    measure_from = time.perf_counter() + warmup_s
    stop_at = measure_from + measure_s

    def caller(index: int):
        conn = Connection(port, tracer)
        stream = plan_score_requests(seed, index, catalogue)
        samples: list[Sample] = []
        pinned: list[tuple] = []
        try:
            count = 0
            while time.perf_counter() < stop_at:
                body = next(stream)
                sample = conn.call("score", "POST", "/score_pairs", body,
                                   group=f"score:{index}:{count}")
                if count < PINNED_SCORE_REQUESTS:
                    scores = (sample.payload or {}).get("scores")
                    pinned.append((body["pairs"], scores))
                sample.payload = None  # thousands of score lists are not kept
                if sample.started >= measure_from:
                    samples.append(sample)
                count += 1
        finally:
            conn.close()
        return samples, pinned

    with ThreadPoolExecutor(max_workers=connections) as pool:
        done = [f.result() for f in
                [pool.submit(caller, i) for i in range(connections)]]
    samples = [s for per_conn, _ in done for s in per_conn]
    last_reply = max(s.started + s.latency_ms / 1e3 for s in samples)
    return samples, last_reply - measure_from, [pins for _, pins in done]


def run_churn_phase(port: int, ops: list[tuple], tracer: Tracer) -> list[Sample]:
    """The planned cycle on one connection, strictly sequential."""
    conn = Connection(port, tracer)
    try:
        samples = []
        for number, (kind, method, path, body) in enumerate(ops):
            sample = conn.call(kind, method, path, body,
                               group=f"churn:{number}")
            if kind in ("read", "fresh_link", "after_remove_link"):
                sample.payload = {"epoch": (sample.payload or {}).get("epoch")}
            samples.append(sample)
        return samples
    finally:
        conn.close()

"""A pure-stdlib blocking client for the linkage gateway.

:class:`GatewayClient` wraps persistent ``http.client`` keep-alive
connections and mirrors the gateway's endpoints as typed methods.  HTTP
errors surface as :class:`GatewayError` carrying the status code, the
structured error slug from the JSON body, and the server's ``Retry-After``
hint — the load generator keys its backpressure accounting off exactly
these fields.

Retry policy — bounded exponential backoff with jitter, two triggers:

* **dropped keep-alive connections** retry idempotent GETs only: the
  socket cannot tell us whether the server executed the request, and a
  replayed mutation would double-apply;
* **429 admission rejections** (``retry_backpressure=True``) retry *any*
  method, honoring the server's ``Retry-After`` hint as the floor of the
  jittered delay — safe even for ``POST /ingest``, because admission
  rejects a request *before* it executes.  This is what lets the chaos
  and swap harnesses treat backpressure as flow control rather than
  failure.

With ``read_endpoints`` configured (a replicated topology —
:mod:`repro.replica`), GETs stick to one endpoint for keep-alive reuse
but **fail over to the next endpoint immediately** when a connection
drops, before any backoff sleep; only after a full fruitless cycle
through every endpoint does the normal backoff schedule engage.
Mutations always go to the primary (the constructor's ``host:port``).

Freshness: reads accept ``min_epoch`` (sent as the ``X-Min-Epoch``
header) — the server answers from state at least that new or returns
412, and the client retries a 412 against the primary, which is never
stale.  :attr:`last_write_epoch` tracks the newest epoch this client's
own writes were acknowledged at; pass it back as ``min_epoch`` for
read-your-writes.

Every retry increments :attr:`GatewayClient.retries`; the load generator
reads the deltas to report per-operation retry counts.

A client instance is **not** thread-safe (``http.client`` connections are
serial); concurrent callers each construct their own — cheap, since the
TCP connect happens lazily on first use and is reused afterwards.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
import urllib.parse

__all__ = ["GatewayClient", "GatewayError"]


class GatewayError(RuntimeError):
    """A non-2xx gateway response, decoded from the structured JSON error."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retry_after: float | None = None,
    ):
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after

    @property
    def is_backpressure(self) -> bool:
        """Whether retrying later is the intended reaction (429/503)."""
        return self.status in (429, 503)


def parse_endpoint(spec: str) -> tuple[str, int]:
    """Parse a ``host:port`` endpoint spec (IPv6 hosts in brackets)."""
    host, sep, port = spec.strip().rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected host:port, got {spec!r}")
    return host.strip("[]") or "127.0.0.1", int(port)


class GatewayClient:
    """Blocking JSON client over keep-alive connections.

    Parameters
    ----------
    host, port:
        The gateway's bound address (see
        :class:`~repro.gateway.server.GatewayThread` / ``repro serve``).
        Always the target of mutations; endpoint 0 for reads.
    timeout:
        Socket timeout in seconds for connect and each response.
    max_attempts:
        Total tries per request (first attempt + retries).  With read
        endpoints, one "try" is a full failover cycle through every
        endpoint.
    backoff_base, backoff_cap:
        Exponential backoff schedule in seconds: attempt ``n`` sleeps
        ``min(cap, base * 2**(n-1))`` scaled by uniform jitter in
        ``[0.5, 1.5)``; a 429's ``Retry-After`` floors the delay.
    retry_backpressure:
        Retry 429 admission rejections (any method — see the module
        docstring).  Off by default so interactive callers and the
        admission tests see rejections immediately.
    read_endpoints:
        Additional gateway addresses (``(host, port)`` tuples or
        ``"host:port"`` strings — follower replicas) eligible to serve
        this client's GETs.  Reads stick to one endpoint and fail over
        on connection drops.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        max_attempts: int = 4,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        retry_backpressure: bool = False,
        read_endpoints=(),
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if backoff_base <= 0 or backoff_cap < backoff_base:
            raise ValueError(
                f"need 0 < backoff_base <= backoff_cap, got "
                f"{backoff_base} / {backoff_cap}"
            )
        self.host = host
        self.port = port
        self.endpoints: list[tuple[str, int]] = [(host, port)]
        for spec in read_endpoints:
            self.endpoints.append(
                parse_endpoint(spec) if isinstance(spec, str)
                else (spec[0], int(spec[1]))
            )
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.retry_backpressure = retry_backpressure
        #: total retries this client performed (reconnects, failovers,
        #: 429 backoff)
        self.retries = 0
        #: newest registry epoch a mutation by this client was acked at
        self.last_write_epoch = 0
        self._rng = random.Random()
        self._read_index = 0  # sticky read endpoint (0 == primary)
        self._conns: dict[int, http.client.HTTPConnection] = {}

    # ------------------------------------------------------------------
    # endpoint methods
    # ------------------------------------------------------------------
    def score_pairs(
        self,
        pairs: list,
        *,
        deadline_ms: float | None = None,
        min_epoch: int | None = None,
    ) -> dict:
        """``POST /score_pairs`` — decision values for a pair batch."""
        body = {"pairs": [[list(a), list(b)] for a, b in pairs]}
        return self._request(
            "POST", "/score_pairs", body,
            deadline_ms=deadline_ms, min_epoch=min_epoch,
        )

    def top_k(
        self,
        platform_a: str,
        platform_b: str,
        k: int = 10,
        *,
        exact: bool = True,
        budget: int | None = None,
        deadline_ms: float | None = None,
        min_epoch: int | None = None,
    ) -> dict:
        """``GET /top_k`` — strongest links of one platform pair.

        ``exact=False`` requests the approximate path (``?exact=false``,
        optionally ``&budget=N``): the ranking cutoff is approximate but
        returned scores are exact.
        """
        query: dict = {
            "platform_a": platform_a, "platform_b": platform_b, "k": k,
        }
        if not exact:
            query["exact"] = "false"
        if budget is not None:
            query["budget"] = budget
        params = urllib.parse.urlencode(query)
        return self._request(
            "GET", f"/top_k?{params}", None,
            deadline_ms=deadline_ms, min_epoch=min_epoch,
        )

    def link_account(
        self,
        platform: str,
        account_id: str,
        *,
        other_platform: str | None = None,
        top: int = 5,
        exact: bool = True,
        budget: int | None = None,
        deadline_ms: float | None = None,
        min_epoch: int | None = None,
    ) -> dict:
        """``POST /link_account`` — resolve one account.

        ``exact=False`` requests the approximate path (see :meth:`top_k`).
        """
        body: dict = {"platform": platform, "account_id": account_id,
                      "top": top}
        if other_platform is not None:
            body["other_platform"] = other_platform
        if not exact:
            body["exact"] = False
        if budget is not None:
            body["budget"] = budget
        return self._request(
            "POST", "/link_account", body,
            deadline_ms=deadline_ms, min_epoch=min_epoch,
        )

    def ingest(
        self, refs: list, *, accounts: list | None = None, score: bool = True
    ) -> dict:
        """``POST /ingest`` — absorb accounts into the running service.

        ``accounts`` optionally carries inline account payloads (the
        JSON form of :func:`repro.wal.payload.payload_to_json`) for refs
        the server's world has never seen; omit it for accounts already
        registered server-side.
        """
        body: dict = {"refs": [list(ref) for ref in refs], "score": score}
        if accounts is not None:
            body["accounts"] = accounts
        return self._track_write(self._request("POST", "/ingest", body))

    def remove_account(self, ref) -> dict:
        """``DELETE /account`` — withdraw one account from serving."""
        return self._track_write(
            self._request("DELETE", "/account", {"ref": list(ref)})
        )

    def swap(self, artifact: str, *, since_epoch: int | None = None) -> dict:
        """``POST /swap`` — blue/green cutover to a refit artifact."""
        body: dict = {"artifact": str(artifact)}
        if since_epoch is not None:
            body["since_epoch"] = since_epoch
        return self._track_write(self._request("POST", "/swap", body))

    def restart_shard(self, shard: int) -> dict:
        """``POST /shards/restart`` — revive one shard of a sharded tier."""
        return self._request("POST", "/shards/restart", {"shard": shard})

    def candidates(self, limit: int = 200) -> dict:
        """``GET /candidates`` — workload seed material for loadgen."""
        params = urllib.parse.urlencode({"limit": limit})
        return self._request("GET", f"/candidates?{params}", None)

    def stats(self) -> dict:
        """``GET /stats`` — service + gateway counters and histograms."""
        return self._request("GET", "/stats", None)

    def healthz(self) -> dict:
        """``GET /healthz`` — liveness and registry epoch."""
        return self._request("GET", "/healthz", None)

    def replicas(self) -> dict:
        """``GET /replicas`` — per-follower epoch, lag, and liveness."""
        return self._request("GET", "/replicas", None)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _track_write(self, response: dict) -> dict:
        epoch = response.get("epoch") if isinstance(response, dict) else None
        if isinstance(epoch, int) and epoch > self.last_write_epoch:
            self.last_write_epoch = epoch
        return response

    def _connection(self, index: int) -> http.client.HTTPConnection:
        conn = self._conns.get(index)
        if conn is None:
            host, port = self.endpoints[index]
            conn = http.client.HTTPConnection(
                host, port, timeout=self.timeout
            )
            self._conns[index] = conn
        return conn

    def _close_endpoint(self, index: int) -> None:
        conn = self._conns.pop(index, None)
        if conn is not None:
            conn.close()

    def _backoff(self, attempt: int, retry_after: float | None) -> None:
        """Sleep the jittered exponential delay before retry ``attempt``."""
        delay = min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))
        delay *= 0.5 + self._rng.random()  # jitter in [0.5x, 1.5x)
        if retry_after is not None:
            delay = max(delay, retry_after)  # the server's hint is a floor
        time.sleep(delay)

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None,
        *,
        deadline_ms: float | None = None,
        min_epoch: int | None = None,
    ) -> dict:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"}
        if deadline_ms is not None:
            headers["X-Deadline-Ms"] = f"{deadline_ms:g}"
        if min_epoch is not None:
            headers["X-Min-Epoch"] = str(int(min_epoch))
        # reads spread across endpoints; mutations stay on the primary
        routable = method == "GET" and min_epoch is None
        attempt = 1
        cycle_tried = 0  # endpoints tried since the last backoff sleep
        while True:
            index = self._read_index if routable else 0
            conn = self._connection(index)
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except socket.timeout:
                # the server may have executed the request and answered
                # late — retrying would double-apply mutations (POST
                # /ingest, DELETE); surface the timeout, caller decides
                self._close_endpoint(index)
                raise
            except (
                http.client.RemoteDisconnected,
                ConnectionError,
                BrokenPipeError,
            ):
                # a dropped connection cannot tell us whether the server
                # executed the request before losing the socket, so only
                # idempotent GETs are retried (usually a stale keep-alive
                # connection); a mutation's failure surfaces to the caller
                self._close_endpoint(index)
                if method != "GET":
                    raise
                if routable and len(self.endpoints) > 1:
                    self._read_index = (index + 1) % len(self.endpoints)
                cycle_tried += 1
                if routable and cycle_tried < len(self.endpoints):
                    # fail over to the next endpoint before backing off
                    self.retries += 1
                    continue
                if attempt >= self.max_attempts:
                    raise
                self.retries += 1
                self._backoff(attempt, None)
                attempt += 1
                cycle_tried = 0
                continue
            try:
                decoded = json.loads(data) if data else {}
            except json.JSONDecodeError:
                decoded = {}
            if response.status >= 400:
                error = (
                    decoded.get("error", {})
                    if isinstance(decoded, dict) else {}
                )
                retry_after = response.getheader("Retry-After")
                gateway_error = GatewayError(
                    response.status,
                    error.get("code", "http_error"),
                    error.get("message", data.decode("utf-8", "replace")),
                    retry_after=(
                        float(retry_after) if retry_after is not None
                        else None
                    ),
                )
                if (
                    gateway_error.status == 429
                    and self.retry_backpressure
                    and attempt < self.max_attempts
                ):
                    # admission rejects *before* execution, so retrying a
                    # mutation cannot double-apply it
                    self.retries += 1
                    self._backoff(attempt, gateway_error.retry_after)
                    attempt += 1
                    continue
                raise gateway_error
            return decoded

    def close(self) -> None:
        for index in list(self._conns):
            self._close_endpoint(index)

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

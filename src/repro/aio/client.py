"""Pooling HTTP client for the asyncio runtime.

Semantically a sibling of :class:`repro.rt.client.HttpClient`: the same
per-endpoint connection pool, the same single stale-retry on reused
connections (and deliberately *no* retry after a response timeout — the
server may still be processing, and a replay risks double delivery), the
same 503 ``Retry-After`` sleep-out, and the same
:meth:`AioConnectionLease.pipeline` burst contract with its serial
replay-tail and timeout-poisoning rules.  Only the I/O primitive differs:
coroutines over ``asyncio`` streams instead of blocking socket calls, so
the dispatcher's writer tasks share one loop thread instead of one
thread each.

The wire bytes come from the identical sans-io serializer/parser
(:mod:`repro.http.wire`) — a packet capture cannot tell the two clients
apart.
"""

from __future__ import annotations

import asyncio
import socket
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import (
    ConnectionClosed,
    ConnectionRefused,
    ConnectionTimeout,
    HttpParseError,
    ReproError,
    TransportError,
)
from repro.http import HttpRequest, HttpResponse
from repro.http.wire import ResponseParser, serialize_request, serialize_request_burst
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.transport.base import Endpoint, parse_http_url

_RECV_CHUNK = 64 * 1024


@dataclass
class _AioConn:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:  # noqa: BLE001 - closing a dead transport is fine
            pass


class AioHttpClient:
    """Asyncio HTTP client with per-endpoint connection reuse."""

    def __init__(
        self,
        connect_timeout: float = 5.0,
        response_timeout: float = 30.0,
        pool_per_endpoint: int = 4,
        user_agent: str = "repro-aio-client/1.0",
        metrics: MetricsRegistry | None = None,
        overload_retries: int = 0,
        retry_after_cap: float = 30.0,
    ) -> None:
        self.connect_timeout = connect_timeout
        self.response_timeout = response_timeout
        self._pool_per_endpoint = pool_per_endpoint
        self._user_agent = user_agent
        self.overload_retries = overload_retries
        self.retry_after_cap = retry_after_cap
        # No lock: every pool access happens on the loop thread, and no
        # await point sits inside a check-out/check-in sequence.
        self._pools: dict[Endpoint, list[_AioConn]] = {}
        self._closed = False
        registry = metrics if metrics is not None else default_registry()
        self._m_requests = registry.counter(
            "aio_client_requests_total",
            "HTTP exchanges completed by the asyncio client",
        )
        self._m_request_time = registry.histogram(
            "aio_client_request_seconds",
            "wall time of one asyncio client HTTP exchange",
            bucket_width=0.001,
        )
        reuse = registry.counter(
            "aio_client_conn_reuse_total", "connection checkouts, by outcome"
        )
        self._m_reuse_reused = reuse.labels(outcome="reused")
        self._m_reuse_fresh = reuse.labels(outcome="fresh")
        self._m_reuse_stale = reuse.labels(outcome="stale_retry")
        self._m_pipeline_bursts = registry.counter(
            "aio_client_pipeline_bursts_total",
            "pipelined write bursts issued on leased connections",
        )
        self._m_pipeline_replayed = registry.counter(
            "aio_client_pipeline_replayed_total",
            "pipelined requests replayed serially after a cut-short burst",
        )
        self._m_overload_waits = registry.counter(
            "aio_client_overload_waits_total",
            "503 responses the client slept out per the server's Retry-After",
        )

    # -- connection pool -------------------------------------------------
    async def _connect(self, endpoint: Endpoint) -> _AioConn:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(endpoint.host, endpoint.port),
                self.connect_timeout,
            )
        except asyncio.TimeoutError:
            raise ConnectionTimeout(f"connect to {endpoint} timed out") from None
        except ConnectionRefusedError as exc:
            raise ConnectionRefused(f"connect to {endpoint}: {exc}") from None
        except OSError as exc:
            raise TransportError(f"connect to {endpoint}: {exc}") from None
        sock = writer.get_extra_info("socket")
        if sock is not None and sock.family != socket.AF_UNIX:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        return _AioConn(reader, writer)

    async def _checkout(self, endpoint: Endpoint) -> tuple[_AioConn, bool]:
        pool = self._pools.get(endpoint)
        if pool:
            self._m_reuse_reused.inc()
            return pool.pop(), True
        self._m_reuse_fresh.inc()
        return await self._connect(endpoint), False

    def _checkin(self, endpoint: Endpoint, conn: _AioConn) -> None:
        if self._closed or conn.writer.is_closing():
            conn.close()
            return
        pool = self._pools.setdefault(endpoint, [])
        if len(pool) < self._pool_per_endpoint:
            pool.append(conn)
            return
        conn.close()

    def close(self) -> None:
        self._closed = True
        conns = [c for pool in self._pools.values() for c in pool]
        self._pools.clear()
        for c in conns:
            c.close()

    # -- request execution -------------------------------------------------
    def prepare(self, url: str, request: HttpRequest) -> Endpoint:
        """Point ``request`` at ``url``: target, Host, User-Agent."""
        endpoint, path = parse_http_url(url)
        request.target = path
        request.headers.set("Host", str(endpoint))
        if "User-Agent" not in request.headers:
            request.headers.set("User-Agent", self._user_agent)
        return endpoint

    async def request(self, url: str, request: HttpRequest) -> HttpResponse:
        """One exchange; single stale retry; optional 503 sleep-out."""
        endpoint = self.prepare(url, request)
        response = await self._request_prepared(endpoint, request)
        for _ in range(self.overload_retries):
            if response.status != 503:
                break
            delay = self._retry_after_of(response)
            if delay is None:
                break
            self._m_overload_waits.inc()
            await asyncio.sleep(min(delay, self.retry_after_cap))
            response = await self._request_prepared(endpoint, request)
        return response

    @staticmethod
    def _retry_after_of(response: HttpResponse) -> float | None:
        raw = response.headers.get("Retry-After")
        if raw is None:
            return None
        try:
            delay = float(raw.strip())
        except ValueError:
            return None
        return delay if delay >= 0 else None

    async def _request_prepared(
        self, endpoint: Endpoint, request: HttpRequest
    ) -> HttpResponse:
        loop = asyncio.get_running_loop()
        t_start = loop.time()
        conn, reused = await self._checkout(endpoint)
        try:
            response = await self._exchange(endpoint, conn, request)
            self._m_requests.inc()
            self._m_request_time.observe(loop.time() - t_start)
            return response
        except ConnectionTimeout:
            # Not retried, even on a reused connection: the server may
            # still be processing the request (double-delivery risk).
            conn.close()
            raise
        except (ConnectionClosed, HttpParseError, TransportError):
            conn.close()
            if not reused:
                raise
        # stale pooled connection: one retry on a fresh one
        self._m_reuse_stale.inc()
        conn = await self._connect(endpoint)
        try:
            response = await self._exchange(endpoint, conn, request)
            self._m_requests.inc()
            self._m_request_time.observe(loop.time() - t_start)
            return response
        except BaseException:
            conn.close()
            raise

    async def _recv(self, conn: _AioConn) -> bytes:
        try:
            return await asyncio.wait_for(
                conn.reader.read(_RECV_CHUNK), self.response_timeout
            )
        except asyncio.TimeoutError:
            raise ConnectionTimeout(
                f"no response within {self.response_timeout}s"
            ) from None
        except OSError as exc:
            raise ConnectionClosed(str(exc)) from None

    async def _send(self, conn: _AioConn, data: bytes) -> None:
        try:
            conn.writer.write(data)
            await conn.writer.drain()
        except (ConnectionError, OSError) as exc:
            raise ConnectionClosed(str(exc)) from None

    async def _exchange(
        self, endpoint: Endpoint, conn: _AioConn, request: HttpRequest
    ) -> HttpResponse:
        await self._send(conn, serialize_request(request))
        parser = ResponseParser()
        if request.method == "HEAD":
            parser.expect_no_body = True
        while True:
            message = parser.next_message()
            if message is not None:
                response: HttpResponse = message  # type: ignore[assignment]
                if response.keep_alive and parser.idle:
                    self._checkin(endpoint, conn)
                else:
                    conn.close()
                return response
            data = await self._recv(conn)
            if not data:
                parser.feed_eof()
                tail = parser.next_message()
                if tail is not None:
                    conn.close()
                    return tail  # type: ignore[return-value]
                raise ConnectionClosed("server closed before full response")
            parser.feed(data)

    # -- connection leases & pipelining ------------------------------------
    async def lease(self, url: str) -> "AioConnectionLease":
        """Check a connection to ``url``'s endpoint out for exclusive use."""
        endpoint, _path = parse_http_url(url)
        conn, reused = await self._checkout(endpoint)
        return AioConnectionLease(self, endpoint, conn, reused)

    async def pipeline(
        self, url: str, requests: Sequence[HttpRequest]
    ) -> "list[HttpResponse | ReproError]":
        """Send ``requests`` to ``url`` as one pipelined burst."""
        prepared = list(requests)
        for req in prepared:
            self.prepare(url, req)
        lease = await self.lease(url)
        try:
            return await lease.pipeline(prepared)
        finally:
            lease.release()


class AioConnectionLease:
    """Exclusive checkout of one asyncio connection to an endpoint.

    Same burst contract as :class:`repro.rt.client.ConnectionLease`:
    one write burst, responses read in order; a cut-short burst replays
    its undelivered tail serially (once each); a response timeout poisons
    the tail instead of replaying it.
    """

    def __init__(
        self,
        client: AioHttpClient,
        endpoint: Endpoint,
        conn: _AioConn,
        reused: bool,
    ) -> None:
        self._client = client
        self.endpoint = endpoint
        self._conn: _AioConn | None = conn
        self.reused = reused
        self._healthy = True
        self._released = False

    # -- lifecycle ---------------------------------------------------------
    def release(self) -> None:
        if self._released:
            return
        self._released = True
        conn, self._conn = self._conn, None
        if conn is None:
            return
        if self._healthy:
            self._client._checkin(self.endpoint, conn)
        else:
            conn.close()

    def _demote(self) -> None:
        self._healthy = False
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    # -- pipelined burst ---------------------------------------------------
    async def pipeline(
        self, requests: "Iterable[HttpRequest]"
    ) -> "list[HttpResponse | ReproError]":
        if self._released:
            raise ReproError("pipeline on a released lease")
        batch = list(requests)
        if not batch:
            return []
        results: "list[HttpResponse | ReproError | None]" = [None] * len(batch)
        self._client._m_pipeline_bursts.inc()
        try:
            await self._client._send(self._conn, serialize_request_burst(batch))
        except (ConnectionClosed, TransportError):
            # nothing read back yet: the whole burst is the tail
            self._demote()
            return await self._replay_tail(batch, results, 0)
        parser = ResponseParser()
        done = 0
        while done < len(batch):
            message = parser.next_message()
            if message is not None:
                results[done] = message
                done += 1
                self._client._m_requests.inc()
                if not message.keep_alive:
                    # server demotes us to serial: no more responses will
                    # arrive on this connection
                    self._demote()
                    return await self._replay_tail(batch, results, done)
                continue
            try:
                data = await self._client._recv(self._conn)
            except ConnectionTimeout as exc:
                # the tail may still be processed: poison, don't replay
                self._demote()
                for i in range(done, len(batch)):
                    results[i] = exc
                return results  # type: ignore[return-value]
            except (ConnectionClosed, TransportError):
                self._demote()
                return await self._replay_tail(batch, results, done)
            if not data:
                tail = self._finish_on_eof(parser)
                if tail is not None and done < len(batch):
                    results[done] = tail
                    done += 1
                    self._client._m_requests.inc()
                self._demote()
                return await self._replay_tail(batch, results, done)
            try:
                parser.feed(data)
            except HttpParseError:
                self._demote()
                return await self._replay_tail(batch, results, done)
        if not parser.idle:
            # trailing bytes past the last response: not a clean boundary
            self._demote()
        return results  # type: ignore[return-value]

    @staticmethod
    def _finish_on_eof(parser: ResponseParser) -> HttpResponse | None:
        try:
            parser.feed_eof()
        except HttpParseError:
            return None
        return parser.next_message()  # type: ignore[return-value]

    async def _replay_tail(
        self,
        batch: "list[HttpRequest]",
        results: "list[HttpResponse | ReproError | None]",
        start: int,
    ) -> "list[HttpResponse | ReproError]":
        """Serial fallback for the undelivered tail, one attempt each."""
        if start < len(batch):
            self._client._m_pipeline_replayed.inc(len(batch) - start)
        for i in range(start, len(batch)):
            try:
                results[i] = await self._client._request_prepared(
                    self.endpoint, batch[i]
                )
            except ReproError as exc:
                results[i] = exc
        return results  # type: ignore[return-value]

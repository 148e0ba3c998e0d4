"""Pooling HTTP client for the asyncio runtime.

The asyncio wire of :mod:`repro.http.session`: the pool, the single
stale-retry, the 503 ``Retry-After`` sleep-out and the burst's
replay/poison rules are that module's, run here by a coroutine
trampoline over ``asyncio`` streams instead of blocking socket calls, so
the dispatcher's writer tasks share one loop thread instead of one
thread each.  Cancelling a task mid-exchange reaches the session as a
thrown ``CancelledError``: the connection is closed, never pooled.

The wire bytes come from the identical sans-io serializer/parser
(:mod:`repro.http.wire`) — a packet capture cannot tell the two clients
apart.
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import (
    ConnectionClosed,
    ConnectionRefused,
    ConnectionTimeout,
    ReproError,
    TransportError,
)
from repro.http import HttpRequest, HttpResponse
from repro.http.session import CONNECT, RECV, SEND, ClientSession, Lease
from repro.obs.metrics import MetricsRegistry
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


class AioHttpClient(ClientSession):
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
        super().__init__(
            metrics, "aio_client", "asyncio client", time.monotonic,
            response_timeout, pool_per_endpoint, user_agent, overload_retries,
            retry_after_cap,
        )
        self.connect_timeout = connect_timeout

    # -- the wire ------------------------------------------------------------
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

    def _alive(self, conn: _AioConn) -> bool:
        return not conn.writer.is_closing()

    async def _recv(self, conn: _AioConn, timeout: float) -> bytes:
        try:
            return await asyncio.wait_for(conn.reader.read(_RECV_CHUNK), timeout)
        except asyncio.TimeoutError:
            raise ConnectionTimeout(f"no response within {timeout}s") from None
        except OSError as exc:
            raise ConnectionClosed(str(exc)) from None

    async def _send(self, conn: _AioConn, data: bytes) -> None:
        try:
            conn.writer.write(data)
            await conn.writer.drain()
        except (ConnectionError, OSError) as exc:
            raise ConnectionClosed(str(exc)) from None

    async def _run(self, steps):
        """Perform the session's effects with awaits; whatever an await
        raises — cancellation included — is the session's to handle or
        pass on."""
        try:
            op, conn, arg = next(steps)
            while True:
                try:
                    if op is RECV:
                        result = await self._recv(conn, arg)
                    elif op is SEND:
                        result = await self._send(conn, arg)
                    elif op is CONNECT:
                        result = await self._connect(arg)
                    else:
                        result = await asyncio.sleep(arg)
                except BaseException as exc:
                    op, conn, arg = steps.throw(exc)
                else:
                    op, conn, arg = steps.send(result)
        except StopIteration as done:
            return done.value
        finally:
            steps.close()

    # -- request execution -------------------------------------------------
    async def request(self, url: str, request: HttpRequest) -> HttpResponse:
        """One exchange; single stale retry; optional 503 sleep-out."""
        return await self._run(self._request(url, request))

    # -- connection leases & pipelining ------------------------------------
    async def lease(self, url: str) -> "AioConnectionLease":
        """Check a connection to ``url``'s endpoint out for exclusive use."""
        endpoint, _path = parse_http_url(url)
        conn, reused = await self._run(self._checkout(endpoint))
        return AioConnectionLease(self, endpoint, conn, reused)

    async def pipeline(
        self, url: str, requests: Sequence[HttpRequest]
    ) -> "list[HttpResponse | ReproError]":
        """Send ``requests`` to ``url`` as one pipelined burst."""
        return await self._run(self._pipeline_url(url, list(requests)))


class AioConnectionLease(Lease):
    """Exclusive checkout of one asyncio connection to an endpoint.

    The burst contract is :class:`repro.http.session.Lease`'s: one write
    burst, responses read in order; a cut-short burst replays its
    undelivered tail serially (once each); a response timeout poisons the
    tail instead of replaying it.
    """

    async def pipeline(
        self, requests: "Iterable[HttpRequest]"
    ) -> "list[HttpResponse | ReproError]":
        return await self._client._run(self._burst(requests))

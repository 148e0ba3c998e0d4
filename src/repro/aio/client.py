"""Pooling HTTP client for the asyncio runtime.

The asyncio wire of :mod:`repro.http.session`: the pool, the single
stale-retry, the 503 ``Retry-After`` sleep-out and the burst's
replay/poison rules are that module's, run here by a coroutine
trampoline over one ``asyncio`` protocol per connection instead of
blocking socket calls, so the dispatcher's writer tasks share one loop
thread instead of one thread each.  A ``RECV`` costs a future and a
timer only when nothing has arrived yet — no task, no stream layer.
Cancelling a task mid-exchange reaches the session as a thrown
``CancelledError``: the connection is closed, never pooled.

The wire bytes come from the identical sans-io serializer/parser
(:mod:`repro.http.wire`) — a packet capture cannot tell the two clients
apart.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from collections.abc import Iterable, Sequence

from repro.errors import (
    ConnectionClosed,
    ConnectionRefused,
    ConnectionTimeout,
    ReproError,
    TransportError,
)
from repro.http import HttpRequest, HttpResponse
from repro.http.session import CONNECT, RECV, RECV_CHUNK, SEND, ClientSession, Lease
from repro.obs.metrics import MetricsRegistry
from repro.transport.base import Endpoint, parse_http_url


class _AioConn(asyncio.BufferedProtocol):
    """One client connection: what the peer sent waits here, in arrival
    order, for the session's next ``RECV``.  Reading is never paused: a
    client that stopped reading mid-``SEND`` would stall the very server
    whose reads its own write is waiting for."""

    def __init__(self, loop: asyncio.AbstractEventLoop, recv_view: memoryview) -> None:
        self._loop = loop
        self._recv_view = recv_view
        self.transport: asyncio.Transport | None = None
        self._chunks: deque[bytes] = deque()
        #: the one parked RECV or SEND (an exchange does one at a time)
        self._waiter: asyncio.Future | None = None
        self._write_paused = False
        #: no more bytes will arrive: the peer's EOF, or the connection is gone
        self._ended = False
        self._error: Exception | None = None

    # -- transport callbacks -------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._recv_view

    def buffer_updated(self, nbytes: int) -> None:
        self._chunks.append(bytes(self._recv_view[:nbytes]))
        self._wake()

    def eof_received(self) -> None:
        self._ended = True  # and, returning None, the transport closes
        self._wake()

    def connection_lost(self, exc) -> None:
        self._ended, self._error = True, exc
        self._wake()

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._wake()

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    def _expire(self, waiter: asyncio.Future, timeout: float) -> None:
        if not waiter.done():
            waiter.set_exception(ConnectionTimeout(f"no response within {timeout}s"))

    async def _parked(self, timeout: float | None = None) -> None:
        """Wait for the next transport callback, under one timer."""
        waiter = self._waiter = self._loop.create_future()
        timer = None
        if timeout is not None:
            timer = self._loop.call_later(timeout, self._expire, waiter, timeout)
        try:
            await waiter
        finally:
            self._waiter = None
            if timer is not None:
                timer.cancel()

    # -- the session's effects ----------------------------------------------
    def close(self) -> None:
        self.transport.close()

    async def recv(self, timeout: float) -> bytes:
        """The next chunk; ``b""`` once the peer has closed."""
        if not self._chunks and not self._ended:
            await self._parked(timeout)
        if self._chunks:
            return self._chunks.popleft()
        if self._error is not None:
            raise ConnectionClosed(str(self._error))
        return b""

    async def send(self, data: bytes) -> None:
        """Write all of ``data``; waits only while the transport has
        paused writing (what ``drain()`` gave)."""
        self.transport.write(data)
        while self._write_paused and not self._ended:
            await self._parked()
        if self._ended:
            raise ConnectionClosed(str(self._error or "connection lost"))


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
        # one receive buffer for every connection of this client: the
        # loop fills it and hands it over before it reads another socket
        self._recv_view = memoryview(bytearray(RECV_CHUNK))

    # -- the wire ------------------------------------------------------------
    async def _connect(self, endpoint: Endpoint) -> _AioConn:
        loop = asyncio.get_running_loop()
        try:
            _transport, conn = await asyncio.wait_for(
                loop.create_connection(
                    lambda: _AioConn(loop, self._recv_view),
                    endpoint.host, endpoint.port,
                ),
                self.connect_timeout,
            )
        except asyncio.TimeoutError:
            raise ConnectionTimeout(f"connect to {endpoint} timed out") from None
        except ConnectionRefusedError as exc:
            raise ConnectionRefused(f"connect to {endpoint}: {exc}") from None
        except OSError as exc:
            raise TransportError(f"connect to {endpoint}: {exc}") from None
        return conn

    def _alive(self, conn: _AioConn) -> bool:
        return not conn.transport.is_closing()

    async def _run(self, steps):
        """Perform the session's effects with awaits; whatever an await
        raises — cancellation included — is the session's to handle or
        pass on."""
        try:
            op, conn, arg = next(steps)
            while True:
                try:
                    if op is RECV:
                        result = await conn.recv(arg)
                    elif op is SEND:
                        result = await conn.send(arg)
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
        """Send ``requests`` to ``url``'s endpoint as one pipelined burst
        (each keeps its own target path)."""
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

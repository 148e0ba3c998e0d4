"""Event-loop HTTP/1.1 server: one protocol object per connection, no
thread and no task per connection.

This is the C10k half of the asyncio runtime.  The threaded
:class:`~repro.rt.server.HttpServer` binds each accepted connection to a
pooled worker thread for its whole lifetime — exactly the
thread-per-connection model whose stacks OOM'd the paper's WS-MsgBox
once enough firewalled clients held long-poll connections open.  Here an
accepted connection costs one :class:`asyncio.BufferedProtocol` (a session
and a timer, ~KB), and the loop reads every connection into the server's
*single* receive buffer, so ten thousand idle long-pollers multiplex onto
one loop thread without owning a stack, a coroutine or 64 KiB each.

The server contract is the sans-io session the threaded and simulated
runtimes drive too (:class:`repro.http.session.ServerSession`), and the
handler contract is :meth:`repro.rt.service.SoapHttpApp.handle_request`
unchanged — with one extension: a handler may return an *awaitable*
response (the long-poll escape hatch), which becomes the one task this
server ever creates: for that request, until it is answered.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Callable

from repro.errors import HttpParseError
from repro.http import HttpRequest, HttpResponse
from repro.http.session import RECV_CHUNK, ServerSession
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.transport.base import Endpoint

#: drops a connection without a word (ConnectionError is an OSError)
_DROP = (HttpParseError, OSError)


class AioHttpServer:
    """Serve HTTP on an asyncio event loop (connection-multiplexing).

    Requests on one connection are served strictly serially, so a
    pipelining client reads its responses in request order — the same
    ordering contract the threaded server's per-connection worker
    provides, required by the dispatcher's pipelined drain bursts.
    """

    def __init__(
        self,
        handler: Callable,
        host: str = "127.0.0.1",
        port: int = 0,
        keep_alive_timeout: float = 15.0,
        name: str = "aio-http",
        metrics: MetricsRegistry | None = None,
        backlog: int = 512,
        reuse_port: bool = False,
        sock: socket.socket | None = None,
    ) -> None:
        self._handler = handler
        self._host = host
        self._port = port
        self._keep_alive_timeout = keep_alive_timeout
        self._backlog = backlog
        self._reuse_port = reuse_port
        self._sock = sock
        self._server: asyncio.AbstractServer | None = None
        self._running = False
        self._connections: set[_Connection] = set()
        # The one receive buffer: the loop fills it and calls
        # buffer_updated() before it reads any other socket, and the
        # parser copies what it keeps, so every connection can share it.
        self._recv_view = memoryview(bytearray(RECV_CHUNK))
        # Single-writer counters: every increment happens on the loop
        # thread, so plain ints are exact (no GIL-race caveat here).
        self._connections_served = 0
        self._requests_served = 0
        registry = metrics if metrics is not None else default_registry()
        registry.gauge(
            "aio_http_connections_served", "connections accepted, by server"
        ).labels(server=name).set_function(lambda: self._connections_served)
        registry.gauge(
            "aio_http_requests_served", "requests answered, by server"
        ).labels(server=name).set_function(lambda: self._requests_served)
        registry.gauge(
            "aio_http_open_connections",
            "connections currently multiplexed on the loop, by server",
        ).labels(server=name).set_function(lambda: len(self._connections))

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "AioHttpServer":
        loop = asyncio.get_running_loop()
        where = {
            "host": self._host, "port": self._port,
            "reuse_port": self._reuse_port or None,
        }
        if self._sock is not None:
            # pre-bound socket handed in by a supervisor (fd inheritance)
            where = {"sock": self._sock}
        self._running = True
        self._server = await loop.create_server(
            lambda: _Connection(self, loop), backlog=self._backlog, **where
        )
        return self

    async def stop(self) -> None:
        self._running = False
        if self._server is not None:
            self._server.close()
        parked = []
        for conn in list(self._connections):
            conn.drop()
            if conn._task is not None:
                conn._task.cancel()
                parked.append(conn._task)
        # every cancelled handler ends here, on the loop; the turn also
        # runs the connection_lost of each connection closed above
        await asyncio.sleep(0)
        await asyncio.gather(*parked, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    async def __aenter__(self) -> "AioHttpServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def endpoint(self) -> Endpoint:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return Endpoint(host, port)

    @property
    def url(self) -> str:
        return f"http://{self.endpoint}"

    # -- metrics ----------------------------------------------------------
    @property
    def connections_served(self) -> int:
        return self._connections_served

    @property
    def requests_served(self) -> int:
        return self._requests_served

    @property
    def open_connections(self) -> int:
        return len(self._connections)


class _Connection(asyncio.BufferedProtocol):
    """One accepted connection: session, pump and keep-alive timer."""

    def __init__(self, server: AioHttpServer, loop: asyncio.AbstractEventLoop) -> None:
        self._server = server
        self._loop = loop
        self._session = ServerSession()
        self._transport: asyncio.Transport | None = None
        self._peer: str | None = None
        #: the parked handler of the request being answered, if any
        self._task: asyncio.Task | None = None
        self._write_paused = False
        self._read_paused = False
        self._eof = False
        self._last_activity = 0.0
        self._idle_timer: asyncio.TimerHandle | None = None

    # -- transport callbacks -------------------------------------------------
    def connection_made(self, transport) -> None:
        server = self._server
        self._transport = transport
        if not server._running:
            transport.abort()  # accepted while stop() was closing the rest
            return
        server._connections.add(self)
        server._connections_served += 1
        sock = transport.get_extra_info("socket")
        if sock is not None and sock.family != socket.AF_UNIX:
            # the transport only does this for a socket made with
            # proto=IPPROTO_TCP, which a supervisor's ``sock=`` need not be
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        peer = transport.get_extra_info("peername")
        self._peer = f"{peer[0]}:{peer[1]}" if peer else None
        self._last_activity = self._loop.time()
        self._check_idle()  # arms the keep-alive timer

    def connection_lost(self, exc) -> None:
        self._server._connections.discard(self)
        if self._idle_timer is not None:
            self._idle_timer.cancel()
        if self._task is not None:
            self._task.cancel()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._server._recv_view

    def buffer_updated(self, nbytes: int) -> None:
        self._last_activity = self._loop.time()
        try:
            self._session.feed(self._server._recv_view[:nbytes])
        except HttpParseError:
            self.drop()
            return
        if self._task is not None:
            # pipelined behind a parked request: it waits in the session,
            # and nothing more is read until that one is answered
            self._pause_reading()
        self._pump()

    def eof_received(self) -> bool:
        # a half-closed peer still gets what it already asked for
        self._eof = True
        self._pump()
        return not self._transport.is_closing()

    def pause_writing(self) -> None:
        self._write_paused = True  # the peer is not reading: stop serving it
        self._pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._pump()

    # -- serving -------------------------------------------------------------
    def drop(self) -> None:
        """Close, after what is already written has gone out."""
        self._transport.close()

    def _pause_reading(self) -> None:
        self._read_paused = True
        self._transport.pause_reading()

    def _pump(self) -> None:
        """Serve every ready request, in order, until one parks, the peer
        stops reading or the connection closes; with nothing left to
        serve, go back to reading (or, after the peer's EOF, close)."""
        transport = self._transport
        while not (self._write_paused or self._task or transport.is_closing()):
            request = self._session.next_request()
            if request is None:
                if self._eof:
                    self.drop()  # client EOF, idle or mid-request
                elif self._read_paused:
                    self._read_paused = False
                    transport.resume_reading()
                return
            try:
                response = self._server._handler(request, self._peer)
            except _DROP:
                self.drop()
                return
            if isinstance(response, HttpResponse):
                self._answer(request, response)
            else:
                # long-poll escape hatch: the handler parked itself on
                # the loop — the one task this server creates
                self._task = self._loop.create_task(self._park(request, response))

    async def _park(self, request: HttpRequest, awaitable) -> None:
        try:
            try:
                response = await awaitable
            finally:
                self._task = None
            self._last_activity = self._loop.time()  # parked is not idle
            self._answer(request, response)
            self._pump()
        except _DROP:
            self.drop()
        except BaseException:
            # stop() or a lost peer cancelling the parked handler, or a
            # handler bug (the loop's exception handler reports it)
            self.drop()
            raise

    def _answer(self, request: HttpRequest, response: HttpResponse) -> None:
        self._transport.write(self._session.answer(request, response))
        self._server._requests_served += 1
        if self._session.closing:
            self.drop()

    def _check_idle(self) -> None:
        """Idle keep-alive expiry, re-armed lazily: a request only stamps
        ``_last_activity``, the timer works out what is left."""
        timeout = self._server._keep_alive_timeout
        left = self._last_activity + timeout - self._loop.time()
        if self._task is not None:
            left = timeout  # a connection parked in a handler is not idle
        if left <= 0:
            self.drop()
        else:
            self._idle_timer = self._loop.call_later(left, self._check_idle)

"""Event-loop HTTP/1.1 server: one task per connection, no thread per
connection.

This is the C10k half of the asyncio runtime.  The threaded
:class:`~repro.rt.server.HttpServer` binds each accepted connection to a
pooled worker thread for its whole lifetime — exactly the
thread-per-connection model whose stacks OOM'd the paper's WS-MsgBox
once enough firewalled clients held long-poll connections open.  Here an
accepted connection costs one coroutine (~KB, not a thread stack), so
ten thousand idle long-pollers multiplex onto a single loop thread.

The wire protocol is the same sans-io parser/serializer the threaded and
simulated runtimes use (:mod:`repro.http.wire`), and the handler contract
is :meth:`repro.rt.service.SoapHttpApp.handle_request` unchanged — with
one extension: a handler may return an *awaitable* response (the
long-poll escape hatch), which this server awaits on the loop instead of
blocking.
"""

from __future__ import annotations

import asyncio
import inspect
import socket
from typing import Callable

from repro.errors import HttpParseError
from repro.http import HttpResponse
from repro.http.wire import RequestParser, serialize_response
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.transport.base import Endpoint

_RECV_CHUNK = 64 * 1024


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
        self._conn_tasks: set[asyncio.Task] = set()
        self._running = False
        # Single-writer counters: every increment happens on the loop
        # thread, so plain ints are exact (no GIL-race caveat here).
        self._connections_served = 0
        self._requests_served = 0
        self._open_connections = 0
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
        ).labels(server=name).set_function(lambda: self._open_connections)

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "AioHttpServer":
        if self._sock is not None:
            # pre-bound socket handed in by a supervisor (fd inheritance)
            self._server = await asyncio.start_server(
                self._serve_connection, sock=self._sock,
                backlog=self._backlog,
            )
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, self._host, self._port,
                backlog=self._backlog, reuse_port=self._reuse_port or None,
            )
        self._running = True
        return self

    async def stop(self) -> None:
        self._running = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

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
        return self._open_connections

    # -- internals ----------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._connections_served += 1
        self._open_connections += 1
        sock = writer.get_extra_info("socket")
        if sock is not None and sock.family != socket.AF_UNIX:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        peer = writer.get_extra_info("peername")
        peer_str = f"{peer[0]}:{peer[1]}" if peer else None
        parser = RequestParser()
        try:
            while self._running:
                request = await self._read_request(reader, parser)
                if request is None or not self._running:
                    return  # idle expiry, client EOF, or server stopped
                response = self._handler(request, peer_str)
                if inspect.isawaitable(response):
                    # long-poll escape hatch: the handler parked itself on
                    # the loop instead of blocking a thread
                    response = await response
                assert isinstance(response, HttpResponse)
                if not request.keep_alive:
                    response.headers.set("Connection", "close")
                writer.write(serialize_response(response))
                await writer.drain()
                self._requests_served += 1
                if not request.keep_alive or not response.keep_alive:
                    return
        except (
            HttpParseError,
            ConnectionError,
            asyncio.IncompleteReadError,
            OSError,
        ):
            return  # drop the connection; client sees reset/EOF
        except asyncio.CancelledError:
            # server shutdown cancelling a parked connection; exiting
            # normally keeps asyncio.streams' done-callback from logging
            # a spurious traceback per connection
            return
        finally:
            self._open_connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, parser: RequestParser
    ):
        while True:
            message = parser.next_message()
            if message is not None:
                return message
            try:
                data = await asyncio.wait_for(
                    reader.read(_RECV_CHUNK), self._keep_alive_timeout
                )
            except asyncio.TimeoutError:
                return None  # idle keep-alive expiry
            if not data:
                if parser.idle:
                    return None
                raise HttpParseError("connection closed mid-request")
            parser.feed(data)

"""Threaded HTTP/1.1 server: acceptor thread + bounded worker pool.

Connection lifecycle mirrors the paper's servlet-container assumptions:
each accepted connection is served by one pooled worker that loops
request→response while the client keeps the connection alive, bounded by
an idle timeout.  The pool size bounds concurrency; when it is saturated,
new connections queue in the executor (policy "block") — backpressure
rather than thread explosion.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.errors import ConnectionTimeout, HttpParseError, TransportError
from repro.http.session import RECV_CHUNK, ServerSession
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.transport.base import Listener, Stream
from repro.util.concurrency import BoundedExecutor, RejectedExecution


class HttpServer:
    """Serve HTTP over any :class:`~repro.transport.base.Listener`."""

    def __init__(
        self,
        listener: Listener,
        handler: Callable,
        workers: int = 16,
        keep_alive_timeout: float = 15.0,
        name: str = "http",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._listener = listener
        self._handler = handler
        self._keep_alive_timeout = keep_alive_timeout
        self._pool = BoundedExecutor(workers, queue_size=0, name=f"{name}-worker")
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True
        )
        self._running = False
        # Monitoring counters, deliberately lock-free.  _connections_served
        # has a single writer (the acceptor thread), so plain increments
        # are exact.  _requests_served is bumped by many workers; under
        # CPython's GIL a racy `+=` can at worst lose the odd increment —
        # acceptable for a monitoring counter and not worth a lock
        # acquisition per request on the serve path.
        self._connections_served = 0
        self._requests_served = 0
        # live-callback gauges: zero cost on the serve path
        registry = metrics if metrics is not None else default_registry()
        registry.gauge(
            "rt_http_connections_served", "connections accepted, by server"
        ).labels(server=name).set_function(lambda: self.connections_served)
        registry.gauge(
            "rt_http_requests_served", "requests answered, by server"
        ).labels(server=name).set_function(lambda: self.requests_served)

    # -- lifecycle ----------------------------------------------------------
    @property
    def endpoint(self):
        return self._listener.endpoint

    @property
    def url(self) -> str:
        return f"http://{self._listener.endpoint}"

    def start(self) -> "HttpServer":
        self._running = True
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        self._listener.close()
        self._pool.shutdown(wait=False)

    def __enter__(self) -> "HttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- metrics ----------------------------------------------------------
    @property
    def connections_served(self) -> int:
        return self._connections_served

    @property
    def requests_served(self) -> int:
        return self._requests_served

    # -- internals ----------------------------------------------------------
    def _accept_loop(self) -> None:
        while self._running:
            try:
                stream = self._listener.accept(timeout=0.5)
            except ConnectionTimeout:
                continue
            except TransportError:
                return  # listener closed
            self._connections_served += 1
            try:
                self._pool.submit(lambda s=stream: self._serve_connection(s))
            except RejectedExecution:
                stream.close()

    def _serve_connection(self, stream: Stream) -> None:
        session = ServerSession()
        try:
            while self._running:
                request = session.next_request()
                if request is not None:
                    stream.send(session.answer(request, self._handler(request, None)))
                    self._requests_served += 1
                elif session.closing:
                    return
                else:
                    data = stream.recv(RECV_CHUNK, timeout=self._keep_alive_timeout)
                    if not data:
                        return  # client EOF, idle or mid-request
                    session.feed(data)
        except (TransportError, HttpParseError):
            return  # idle expiry or a dropped connection; client sees EOF
        finally:
            stream.close()

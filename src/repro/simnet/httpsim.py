"""HTTP over the simulated transport, reusing the production wire codec.

Handlers may be plain functions (``HttpRequest -> HttpResponse``) or
generator functions that yield simulation events and return the response
— which is how the simulated dispatchers perform their own forwarding I/O
while serving a request.
"""

from __future__ import annotations

import types
from typing import Callable

from repro.errors import (
    ConnectionClosed,
    ConnectionTimeout,
    HttpParseError,
    ReproError,
    TransportError,
)
from repro.http import HttpRequest, HttpResponse
from repro.http.wire import (
    RequestParser,
    ResponseParser,
    serialize_request,
    serialize_request_burst,
    serialize_response,
)
from repro.simnet.kernel import Simulator
from repro.simnet.resources import Resource
from repro.simnet.tcpsim import SimTcpConnection, TcpParams, connect, listen
from repro.simnet.topology import Host, Network

Handler = Callable[[HttpRequest], "HttpResponse | types.GeneratorType"]


class SimHttpServer:
    """HTTP server hosted on a simulated machine.

    ``workers`` bounds concurrent request *processing* (the servlet thread
    pool); accepted connections beyond that queue for a worker.
    ``service_time`` is the CPU cost per request on a speed-1.0 host (the
    host's ``cpu_factor`` scales it) — this is what makes inriaSlow slow.

    ``handler`` may be a :class:`~repro.rt.service.SoapHttpApp` itself:
    its ``handle_request`` is served, and the app is recorded on the
    ``host`` (:meth:`Host.serve_app`) so a MSG-Dispatcher on the same
    machine can see what is mounted beside it.
    """

    def __init__(
        self,
        net: Network,
        host: Host,
        port: int,
        handler: Handler,
        workers: int = 32,
        keep_alive_timeout: float = 15.0,
        service_time: float = 0.0005,
        params: TcpParams | None = None,
    ) -> None:
        self.net = net
        self.sim = net.sim
        self.host = host
        self.port = port
        if hasattr(handler, "handle_request"):
            host.serve_app(port, handler)
            handler = handler.handle_request
        self.handler = handler
        self.keep_alive_timeout = keep_alive_timeout
        self.service_time = service_time
        self.params = params or TcpParams()
        self.workers = Resource(self.sim, capacity=workers)
        self.listener = listen(self.sim, host, port, self.params)
        self.requests_served = 0
        self.connections_accepted = 0
        self._running = True
        self.paused = False
        self.sim.process(self._accept_loop(), name=f"http-accept-{host.name}:{port}")

    def stop(self) -> None:
        self._running = False
        self.listener.close()

    # -- fault injection: service-level stop/start -------------------------
    def pause(self) -> None:
        """Stop the service while the host stays up: the listener closes,
        so new connects get ConnectionRefused (not a silent timeout)."""
        if self.paused:
            return
        self.paused = True
        self.listener.close()

    def resume(self) -> None:
        """Reopen the listener and resume accepting connections."""
        if not self.paused:
            return
        self.paused = False
        self.listener = listen(self.sim, self.host, self.port, self.params)
        self.sim.process(
            self._accept_loop(),
            name=f"http-accept-{self.host.name}:{self.port}",
        )

    # -- processes ----------------------------------------------------------
    def _accept_loop(self):
        while self._running:
            try:
                conn = yield self.listener.accept()
            except Exception:
                return
            self.connections_accepted += 1
            self.sim.process(
                self._serve(conn), name=f"http-conn-{self.host.name}:{self.port}"
            )

    def _serve(self, conn: SimTcpConnection):
        parser = RequestParser()
        try:
            while self._running and not self.paused:
                request = None
                while request is None:
                    request = parser.next_message()
                    if request is not None:
                        break
                    try:
                        data = yield from conn.recv(timeout=self.keep_alive_timeout)
                    except ConnectionTimeout:
                        return
                    if not data:
                        return
                    parser.feed(data)

                # A pipelined client may have several requests already
                # buffered; process them all and coalesce the responses
                # into one write, the way a real server's socket buffer
                # streams back-to-back responses (one propagation delay
                # for the whole burst, not one per response).  A serial
                # client never has more than one request buffered, so its
                # timing is unchanged.
                pending = [request]
                while True:
                    more = parser.next_message()
                    if more is None:
                        break
                    pending.append(more)
                responses = []
                close_after = False
                for req in pending:
                    req_slot = self.workers.request()
                    yield req_slot
                    try:
                        if self.service_time > 0:
                            yield self.host.compute(self.service_time)
                        response = self._invoke(req)
                        if isinstance(response, types.GeneratorType):
                            response = yield from response
                    finally:
                        req_slot.release()
                    if not req.keep_alive:
                        response.headers.set("Connection", "close")
                    responses.append(response)
                    if not req.keep_alive or not response.keep_alive:
                        close_after = True
                        break
                yield from conn.send(
                    b"".join(serialize_response(r) for r in responses)
                )
                self.requests_served += len(responses)
                if close_after:
                    return
        except (TransportError, HttpParseError):
            return
        finally:
            conn.close()

    def _invoke(self, request: HttpRequest):
        return self.handler(request)


def sim_http_exchange(
    conn: SimTcpConnection,
    request: HttpRequest,
    response_timeout: float,
):
    """Process step: send a request on an open connection, read the reply.

    Usage: ``response = yield from sim_http_exchange(conn, req, 30.0)``.
    """
    yield from conn.send(serialize_request(request))
    parser = ResponseParser()
    if request.method == "HEAD":
        parser.expect_no_body = True
    while True:
        message = parser.next_message()
        if message is not None:
            return message
        data = yield from conn.recv(timeout=response_timeout)
        if not data:
            parser.feed_eof()
            tail = parser.next_message()
            if tail is not None:
                return tail
            raise ConnectionClosed("server closed before full response")
        parser.feed(data)


def sim_http_request(
    net: Network,
    client: Host,
    server_name: str,
    port: int,
    request: HttpRequest,
    connect_timeout: float = 21.0,
    response_timeout: float = 30.0,
    params: TcpParams | None = None,
):
    """Process step: one-shot request (fresh connection, closed after).

    Usage: ``response = yield from sim_http_request(...)``.
    """
    params = params or TcpParams()
    params.connect_timeout = connect_timeout
    conn = yield from connect(net, client, server_name, port, params)
    try:
        response = yield from sim_http_exchange(conn, request, response_timeout)
        return response
    finally:
        conn.close()


class SimHttpClientPool:
    """Per-destination persistent connections for a simulated client host.

    The WsThread model: ``exchange`` reuses an idle connection to the
    destination when one exists and it is still usable, otherwise opens a
    fresh one; connections return to the pool after a clean exchange.
    """

    def __init__(
        self,
        net: Network,
        host: Host,
        connect_timeout: float = 21.0,
        response_timeout: float = 30.0,
        pool_per_destination: int = 2,
    ) -> None:
        self.net = net
        self.host = host
        self.connect_timeout = connect_timeout
        self.response_timeout = response_timeout
        self.pool_per_destination = pool_per_destination
        self._idle: dict[tuple[str, int], list[SimTcpConnection]] = {}
        self.reuses = 0
        self.fresh_connects = 0
        self.pipelined_bursts = 0
        self.pipeline_replays = 0

    def _checkout_idle(self, key: tuple[str, int]) -> SimTcpConnection | None:
        """Pop a still-usable idle connection to ``key``, or None."""
        pool = self._idle.get(key)
        while pool:
            candidate = pool.pop()
            if (
                not candidate.broken
                and candidate.peer
                and not candidate.peer.closed
            ):
                return candidate
        return None

    def _checkin_idle(self, key: tuple[str, int], conn: SimTcpConnection) -> None:
        bucket = self._idle.setdefault(key, [])
        if len(bucket) < self.pool_per_destination:
            bucket.append(conn)
        else:
            conn.close()

    def exchange(self, server_name: str, port: int, request: HttpRequest):
        """Process step: request/response with connection reuse."""
        key = (server_name, port)
        conn = self._checkout_idle(key)
        reused = conn is not None
        if conn is None:
            params = TcpParams(connect_timeout=self.connect_timeout)
            conn = yield from connect(self.net, self.host, server_name, port, params)
            self.fresh_connects += 1
        else:
            self.reuses += 1
        try:
            response = yield from sim_http_exchange(
                conn, request, self.response_timeout
            )
        except (TransportError, HttpParseError):
            conn.close()
            if reused:
                # retry once on a fresh connection (the pooled one was stale)
                params = TcpParams(connect_timeout=self.connect_timeout)
                conn = yield from connect(
                    self.net, self.host, server_name, port, params
                )
                self.fresh_connects += 1
                try:
                    response = yield from sim_http_exchange(
                        conn, request, self.response_timeout
                    )
                except BaseException:
                    conn.close()
                    raise
            else:
                raise
        if response.keep_alive:
            self._checkin_idle(key, conn)
        else:
            conn.close()
        return response

    # -- pipelined bursts (the WsThread drain path) ------------------------
    def pipeline(self, server_name: str, port: int, requests):
        """Process step: send ``requests`` as one write burst; read responses.

        The simulated twin of
        :meth:`repro.rt.client.ConnectionLease.pipeline`: one send models
        the whole burst, the N responses are read back in order, and a
        cut-short burst (server close, ``Connection: close``) replays the
        undelivered tail serially via :meth:`exchange` — each tail request
        exactly once.  A response timeout poisons the tail instead (the
        server may still process those requests).  Returns a list aligned
        with ``requests`` of :class:`HttpResponse` or the exception.
        """
        requests = list(requests)
        if not requests:
            return []
        key = (server_name, port)
        conn = self._checkout_idle(key)
        if conn is None:
            params = TcpParams(connect_timeout=self.connect_timeout)
            try:
                conn = yield from connect(
                    self.net, self.host, server_name, port, params
                )
            except (TransportError, ReproError) as exc:
                return [exc] * len(requests)
            self.fresh_connects += 1
        else:
            self.reuses += 1
        self.pipelined_bursts += 1
        results: list = [None] * len(requests)
        try:
            yield from conn.send(serialize_request_burst(requests))
        except (TransportError, HttpParseError):
            conn.close()
            out = yield from self._replay_tail(server_name, port, requests, results, 0)
            return out
        parser = ResponseParser()
        done = 0
        while done < len(requests):
            message = parser.next_message()
            if message is not None:
                results[done] = message
                done += 1
                if not message.keep_alive:
                    # server demotes the burst to serial
                    conn.close()
                    out = yield from self._replay_tail(
                        server_name, port, requests, results, done
                    )
                    return out
                continue
            try:
                data = yield from conn.recv(timeout=self.response_timeout)
            except ConnectionTimeout as exc:
                conn.close()
                for i in range(done, len(requests)):
                    results[i] = exc
                return results
            except (TransportError, HttpParseError):
                conn.close()
                out = yield from self._replay_tail(
                    server_name, port, requests, results, done
                )
                return out
            if not data:
                try:
                    parser.feed_eof()
                    tail = parser.next_message()
                except HttpParseError:
                    tail = None
                if tail is not None and done < len(requests):
                    results[done] = tail
                    done += 1
                conn.close()
                out = yield from self._replay_tail(
                    server_name, port, requests, results, done
                )
                return out
            try:
                parser.feed(data)
            except HttpParseError:
                conn.close()
                out = yield from self._replay_tail(
                    server_name, port, requests, results, done
                )
                return out
        self._checkin_idle(key, conn)
        return results

    def _replay_tail(self, server_name: str, port: int, requests, results, start):
        """Serial fallback for a cut-short burst's undelivered tail."""
        if start < len(requests):
            self.pipeline_replays += len(requests) - start
        for i in range(start, len(requests)):
            try:
                results[i] = yield from self.exchange(
                    server_name, port, requests[i]
                )
            except (TransportError, ReproError) as exc:
                results[i] = exc
        return results

    def close_all(self) -> None:
        for pool in self._idle.values():
            for conn in pool:
                conn.close()
        self._idle.clear()

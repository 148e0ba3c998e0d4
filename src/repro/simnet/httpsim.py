"""HTTP over the simulated transport, under the production contracts:
the server drives a :class:`~repro.http.session.ServerSession` per
connection and the client pool is a :class:`~repro.http.session.ClientSession`.

Handlers may be plain functions (``HttpRequest -> HttpResponse``) or
generator functions that yield simulation events and return the response
— which is how the simulated dispatchers perform their own forwarding I/O
while serving a request.
"""

from __future__ import annotations

import types
from typing import Callable

from repro.errors import HttpParseError, TransportError
from repro.http import HttpRequest
from repro.http.session import RECV, SEND, ClientSession, ServerSession, exchange
from repro.obs.metrics import MetricsRegistry
from repro.simnet.resources import Resource
from repro.simnet.tcpsim import SimTcpConnection, TcpParams, connect, listen
from repro.simnet.topology import Host, Network

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
        handler: Callable,
        workers: int = 32,
        keep_alive_timeout: float = 15.0,
        service_time: float = 0.0005,
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
        self.params = TcpParams()
        self.workers = Resource(self.sim, capacity=workers)
        self.listener = listen(self.sim, host, port, self.params)
        self.requests_served = 0
        self.connections_served = 0
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
            self.connections_served += 1
            self.sim.process(
                self._serve(conn), name=f"http-conn-{self.host.name}:{self.port}"
            )

    def _serve(self, conn: SimTcpConnection):
        session = ServerSession()
        try:
            while self._running and not self.paused:
                request = session.next_request()
                while request is None:
                    data = yield from conn.recv(timeout=self.keep_alive_timeout)
                    if not data:
                        return
                    session.feed(data)
                    request = session.next_request()
                # A pipelined client may have several requests already
                # buffered; serve them all and coalesce the answers into
                # one write, the way a real server's socket buffer streams
                # back-to-back responses (one propagation delay for the
                # whole burst, not one per response).  A serial client
                # never has more than one request buffered, so its timing
                # is unchanged.
                answers, failure = [], None
                while request is not None:
                    slot = self.workers.request()
                    yield slot
                    try:
                        if self.service_time > 0:
                            yield self.host.compute(self.service_time)
                        response = self.handler(request)
                        if isinstance(response, types.GeneratorType):
                            response = yield from response
                    except Exception as exc:
                        failure = exc
                        break
                    finally:
                        slot.release()
                    answers.append(session.answer(request, response))
                    request = session.next_request()
                # what was answered before a handler raised still goes out
                if answers:
                    yield from conn.send(b"".join(answers))
                    self.requests_served += len(answers)
                if failure is not None:
                    raise failure
                if session.closing:
                    return
        except (TransportError, HttpParseError):
            return  # idle expiry or a dropped connection
        finally:
            conn.close()


def _run(steps, pool: "SimHttpClientPool | None" = None):
    """Process step: perform the session's effects on the simulated wire;
    whatever a step raises — ``SimInterrupt`` included — is the session's
    to handle or pass on.  ``pool`` is who connects; a bare
    :func:`~repro.http.session.exchange` needs none."""
    try:
        op, conn, arg = next(steps)
        while True:
            try:
                if op is RECV:
                    result = yield from conn.recv(timeout=arg)
                elif op is SEND:
                    result = yield from conn.send(arg)
                else:
                    result = yield from connect(
                        pool.net, pool.host, *arg,
                        TcpParams(connect_timeout=pool.connect_timeout),
                    )
            except BaseException as exc:
                op, conn, arg = steps.throw(exc)
            else:
                op, conn, arg = steps.send(result)
    except StopIteration as done:
        return done.value
    finally:
        steps.close()


def sim_http_exchange(
    conn: SimTcpConnection,
    request: HttpRequest,
    response_timeout: float,
):
    """Process step: send a request on an open connection, read the reply.

    Usage: ``response = yield from sim_http_exchange(conn, req, 30.0)``.
    The connection is left open only at a clean keep-alive boundary.
    """
    responses, cut, _resend, _clean = yield from _run(
        exchange(conn, [request], response_timeout)
    )
    if cut is not None:
        raise cut
    return responses[0]


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


class SimHttpClientPool(ClientSession):
    """Per-destination persistent connections for a simulated client host.

    The WsThread model, under :mod:`repro.http.session`'s rules:
    ``exchange`` reuses an idle connection to the destination when one
    exists and it is still usable, otherwise opens a fresh one;
    connections return to the pool after a clean exchange.  Requests go
    out as given — no ``Host`` / ``User-Agent`` is added, so simulated
    transfer sizes are the caller's alone.
    """

    def __init__(
        self,
        net: Network,
        host: Host,
        connect_timeout: float = 21.0,
        response_timeout: float = 30.0,
        pool_per_destination: int = 2,
    ) -> None:
        # counted in a registry of its own: the simulator exports the four
        # attributes below, not metric families
        super().__init__(
            MetricsRegistry(), "sim_client", "simulated client",
            lambda: net.sim.now, response_timeout, pool_per_destination,
        )
        self.net = net
        self.host = host
        self.connect_timeout = connect_timeout

    @property
    def reuses(self) -> int:
        return self._m_reuse_reused.get()

    @property
    def fresh_connects(self) -> int:
        """Connections opened, a stale-retry's included."""
        return self._m_reuse_fresh.get() + self._m_reuse_stale.get()

    @property
    def pipelined_bursts(self) -> int:
        return self._m_pipeline_bursts.labels().get()

    @property
    def pipeline_replays(self) -> int:
        return self._m_pipeline_replayed.labels().get()

    def _alive(self, conn: SimTcpConnection) -> bool:
        return not conn.broken and conn.peer is not None and not conn.peer.closed

    def exchange(self, server_name: str, port: int, request: HttpRequest):
        """Process step: request/response with connection reuse."""
        return _run(self._request_prepared((server_name, port), request), self)

    # -- pipelined bursts (the WsThread drain path) ------------------------
    def pipeline(self, server_name: str, port: int, requests):
        """Process step: send ``requests`` as one write burst; read responses.

        The simulated wire of :class:`repro.http.session.Lease`'s burst:
        one send models the whole burst, the N responses are read back in
        order, and a cut-short burst (server close, ``Connection: close``)
        replays the undelivered tail serially — each tail request exactly
        once.  A response timeout poisons the tail instead (the server
        may still process those requests).  Returns a list aligned with
        ``requests`` of :class:`HttpResponse` or the exception.
        """
        return _run(self._pipeline((server_name, port), list(requests)), self)

"""The HTTP contracts, client and server, each written once and sans-io.

:class:`ServerSession` is the servlet container's half: one accepted
connection's requests answered in order, kept alive or closed.  The rest
of this module is the client's.

The paper's WsThread "holds an open connection for a predefined time with
a specified WS" and drains its queue over it (§4, Fig 3).  Everything a
client *decides* while doing that lives here — the per-endpoint pool, the
single exchange, stale-retry-once, the pipelined burst, the counters —
and nothing here touches a socket, a loop or a clock it was not handed.  Every method whose docstring starts with
*Steps:* is a generator that yields the three blocking effects as
``(op, connection, argument)`` and is sent the result, or thrown the
:mod:`repro.errors` exception:

========================  ============================================
``CONNECT, None, key``    open a connection to the pool key → connection
``SEND, conn, data``      write all of ``data``
``RECV, conn, timeout``   read some bytes (``b""`` = the peer closed)
========================  ============================================

A runtime is a trampoline that performs them — a blocking call on ``rt``,
an ``await`` on ``aio``, a ``yield from`` on ``simnet`` — plus its
translation of ``OSError`` / ``asyncio.TimeoutError`` into the repo's
errors.  Whatever else the trampoline is thrown (cancellation,
``SimInterrupt``, ``KeyboardInterrupt``) it throws in here too, so the
rules hold on every way out:

- A connection is *unclean from the first byte sent until the last
  response is read*: it is pooled only when every request on it was
  answered, the last answer allows keep-alive and no byte trails it.
  Any other way out of an exchange closes it.
- A cut-short exchange (close, reset, ``Connection: close``, parse error)
  may be re-sent: a single request once, on a fresh connection, and only
  if the one that failed came from the pool (it was stale); a burst's
  undelivered tail serially, each request exactly once.
- A response *timeout* is never followed by a re-send, reused connection
  or not; the unanswered requests end with the timeout instead.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable, Iterable

from repro.errors import (
    ConnectionClosed,
    ConnectionTimeout,
    HttpParseError,
    ReproError,
    TransportError,
)
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.wire import (
    RequestParser,
    ResponseParser,
    serialize_request_burst,
    serialize_response,
)
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.transport.base import Endpoint, parse_http_url

CONNECT, SEND, RECV = "connect", "send", "recv"

#: what a socket driver asks for per read, client or server
RECV_CHUNK = 64 * 1024

#: idle connections the socket clients keep per endpoint
POOL_PER_ENDPOINT = 4

#: what a wire can do to an exchange short of answering it
_WIRE_ERRORS = (TransportError, HttpParseError)


def soap_post(
    body: bytes, path: str = "/", content_type: str = SOAP11_CONTENT_TYPE
) -> HttpRequest:
    """The POST every runtime forwards an envelope with."""
    headers = Headers()
    headers.set("Content-Type", content_type)
    return HttpRequest("POST", path, headers=headers, body=body)


def exchange(conn, batch: "list[HttpRequest]", timeout: float):
    """Steps: one write of ``batch`` on ``conn``, the responses read in order.

    Returns ``(responses, cut, resend, clean)``: the responses that
    arrived (a prefix of the batch), the error that cut the exchange short
    (None when every request was answered), whether the unanswered
    requests may be sent again, and whether ``conn`` is still open at a
    message boundary.  An unclean connection is closed here, on every way
    out — the caller only ever pools or keeps a clean one.
    """
    responses: list[HttpResponse] = []
    cut, resend, clean, garbled = None, True, False, None
    parser = ResponseParser()
    parser.expect_no_body = batch[0].method == "HEAD"
    try:
        try:
            yield SEND, conn, serialize_request_burst(batch)
            reusable = True
            while reusable and len(responses) < len(batch):
                message = parser.next_message()
                if message is None:
                    if garbled is not None:
                        raise garbled
                    data = yield RECV, conn, timeout
                    if data:
                        try:
                            parser.feed(data)
                        except HttpParseError as exc:
                            # whatever parsed before the bad bytes was
                            # answered, however the stream was chunked
                            garbled = exc
                        continue
                    # EOF may legally complete a read-until-close response
                    reusable = False
                    parser.feed_eof()
                    message = parser.next_message()
                    if message is None:
                        raise ConnectionClosed("server closed before full response")
                responses.append(message)
                # ``Connection: close`` demotes the rest of a burst to
                # serial: no more responses will arrive on this connection
                reusable = reusable and message.keep_alive
        except ConnectionTimeout as exc:
            # Deliberately never re-sent: the server may still be
            # processing what it has not answered, so a replay risks
            # delivering it twice.  Staleness shows up as an immediate
            # close/reset, never as a silent deadline.
            cut, resend = exc, False
        except _WIRE_ERRORS as exc:
            cut = exc
        else:
            if len(responses) < len(batch):
                cut = ConnectionClosed("server closed the connection mid-burst")
            # trailing bytes past the last response: not a clean boundary
            clean = reusable and parser.idle
    finally:
        if not clean:
            conn.close()
    return responses, cut, resend, clean


class ClientSession:
    """Per-endpoint connection reuse and the exchange contract.

    The runtimes subclass it and add their wire: the four effects and the
    trampoline that runs the *Steps:* generators over them.  ``family`` /
    ``who`` name the metric families; ``clock`` is read, never waited on.
    A pool key is whatever the wire connects to — an :class:`Endpoint` on
    real sockets, ``(host, port)`` in the simulator.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None,
        family: str,
        who: str,
        clock: Callable[[], float],
        response_timeout: float,
        pool_size: int,
        user_agent: str = "",
    ) -> None:
        self.response_timeout = response_timeout
        self.pool_size = pool_size
        self._user_agent = user_agent
        self._clock = clock
        self._pools: dict[Hashable, list] = {}
        # Uncontended on aio and simnet, where every pool access happens
        # on one thread with no effect between check-out and check-in.
        self._lock = threading.Lock()
        self._closed = False
        registry = metrics if metrics is not None else default_registry()
        self._m_requests = registry.counter(
            f"{family}_requests_total", f"HTTP exchanges completed by the {who}"
        ).labels()
        self._m_request_time = registry.histogram(
            f"{family}_request_seconds",
            f"wall time of one {who} HTTP exchange",
            bucket_width=0.001,
        ).labels()
        reuse = registry.counter(
            f"{family}_conn_reuse_total", "connection checkouts, by outcome"
        )
        self._m_reuse_reused = reuse.labels(outcome="reused")
        self._m_reuse_fresh = reuse.labels(outcome="fresh")
        self._m_reuse_stale = reuse.labels(outcome="stale_retry")
        self._m_pipeline_bursts = registry.counter(
            f"{family}_pipeline_bursts_total",
            "pipelined write bursts issued on leased connections",
        )
        self._m_pipeline_replayed = registry.counter(
            f"{family}_pipeline_replayed_total",
            "pipelined requests replayed serially after a cut-short burst",
        )

    # -- connection pool -------------------------------------------------
    def _alive(self, conn) -> bool:
        """Wire hook: may this idle connection still carry an exchange?"""
        return True

    def _checkout(self, key: Hashable):
        """Steps: a pooled connection to ``key`` or a fresh one → (conn, reused)."""
        with self._lock:
            pool = self._pools.get(key)
            while pool:
                conn = pool.pop()
                if self._alive(conn):
                    self._m_reuse_reused.inc()
                    return conn, True
        conn = yield CONNECT, None, key
        self._m_reuse_fresh.inc()
        return conn, False

    def _checkin(self, key: Hashable, conn) -> None:
        with self._lock:
            if not self._closed:
                pool = self._pools.setdefault(key, [])
                if len(pool) < self.pool_size:
                    pool.append(conn)
                    return
        conn.close()

    def close_idle(self) -> None:
        """Close every pooled connection; the session stays usable."""
        with self._lock:
            conns = [c for pool in self._pools.values() for c in pool]
            self._pools.clear()
        for conn in conns:
            conn.close()

    def close(self) -> None:
        """Close the pool for good: later check-ins are discarded."""
        with self._lock:
            self._closed = True
        self.close_idle()

    # -- request execution -------------------------------------------------
    def prepare(self, url: str, request: HttpRequest) -> Endpoint:
        """Point ``request`` at ``url``: target, Host, User-Agent.

        Returns the parsed endpoint.  Used by ``request`` and by callers
        that batch prepared requests for a lease.
        """
        endpoint, path = parse_http_url(url)
        request.target = path
        self._stamp(endpoint, request)
        return endpoint

    def _stamp(self, endpoint: Endpoint, request: HttpRequest) -> None:
        """Host and User-Agent for a request to ``endpoint``."""
        request.headers.set("Host", str(endpoint))
        if "User-Agent" not in request.headers:
            request.headers.set("User-Agent", self._user_agent)

    def _request(self, url: str, request: HttpRequest):
        """Steps: prepare ``request`` for ``url`` and exchange it.  A 503
        is the caller's answer like any other: never slept out, never
        re-sent."""
        return self._request_prepared(self.prepare(url, request), request)

    def _request_prepared(self, key: Hashable, request: HttpRequest):
        """Steps: one exchange on a pooled or fresh connection to ``key``."""
        t_start = self._clock()
        conn, reused = yield from self._checkout(key)
        batch = [request]
        responses, cut, resend, clean = yield from exchange(
            conn, batch, self.response_timeout
        )
        if cut is not None and reused and resend:
            # stale pooled connection: one retry on a fresh one
            self._m_reuse_stale.inc()
            conn = yield CONNECT, None, key
            responses, cut, resend, clean = yield from exchange(
                conn, batch, self.response_timeout
            )
        if cut is not None:
            raise cut
        if clean:
            self._checkin(key, conn)
        self._m_requests.inc()
        self._m_request_time.observe(self._clock() - t_start)
        return responses[0]

    # -- connection leases & pipelining ------------------------------------
    def _pipeline(self, key: Hashable, requests: "list[HttpRequest]"):
        """Steps: ``requests`` to ``key`` as one burst on a temporary lease;
        each slot of the result holds that request's response or error —
        all of them the connect error when no connection could be had."""
        if not requests:
            return []
        try:
            conn, reused = yield from self._checkout(key)
        except _WIRE_ERRORS as exc:
            return [exc] * len(requests)
        lease = Lease(self, key, conn, reused)
        try:
            return (yield from lease._burst(requests))
        finally:
            lease.release()

    def _pipeline_url(self, url: str, requests: "list[HttpRequest]"):
        """Steps (:meth:`_pipeline`'s): ``requests`` to ``url``'s endpoint,
        each with that endpoint's Host and User-Agent and its own target
        path — a drained batch shares a destination endpoint, not a path."""
        endpoint, _path = parse_http_url(url)
        for request in requests:
            self._stamp(endpoint, request)
        return self._pipeline(endpoint, requests)


class Lease:
    """Exclusive checkout of one connection: out of the shared pool, so
    nothing else can interleave bytes on it, until :meth:`release`."""

    def __init__(self, client: ClientSession, endpoint: Hashable, conn, reused: bool) -> None:
        self._client = client
        self.endpoint = endpoint
        self._conn = conn
        self.reused = reused
        self._released = False

    def release(self) -> None:
        """Return the connection to the pool, unless a burst discarded it."""
        if self._released:
            return
        self._released = True
        conn, self._conn = self._conn, None
        if conn is not None:
            self._client._checkin(self.endpoint, conn)

    def _burst(self, requests: "Iterable[HttpRequest]"):
        """Steps: one write burst of already-prepared requests → a list
        aligned with them of response or error.  A cut-short burst's tail
        is replayed serially, once each, on ordinary pooled connections; a
        response timeout poisons it instead."""
        if self._released:
            raise ReproError("pipeline on a released lease")
        batch = list(requests)
        if not batch:
            return []
        client = self._client
        client._m_pipeline_bursts.inc()
        # the lease holds no connection while one is mid-burst: whatever
        # ends the burst early, release() finds nothing to pool
        conn, self._conn = self._conn, None
        results: list = []
        cut, resend = None, True
        if conn is not None:
            results, cut, resend, clean = yield from exchange(
                conn, batch, client.response_timeout
            )
            if clean:
                self._conn = conn
            client._m_requests.inc(len(results))
        tail = batch[len(results):]
        if tail and resend:
            client._m_pipeline_replayed.inc(len(tail))
        for request in tail:
            outcome = cut
            if resend:
                try:
                    outcome = yield from client._request_prepared(self.endpoint, request)
                except _WIRE_ERRORS as exc:
                    outcome = exc
            results.append(outcome)
        return results


class ServerSession:
    """One accepted connection's side of the server contract.

    A driver feeds it what it reads, answers each :meth:`next_request` in
    order with the bytes of :meth:`answer`, and closes the connection
    when ``closing`` is set and those bytes are written.  What the driver
    keeps is its wire: accept, the worker, slot or park a handler runs in,
    the write, EOF (close once nothing ready is left) and the idle clock.
    A :class:`~repro.errors.HttpParseError` from :meth:`feed` drops the
    connection, whatever was parsed before the bad bytes unanswered; a
    handler that raises closes it once the answers already made are
    written.
    """

    __slots__ = ("_parser", "closing")

    def __init__(self) -> None:
        self._parser = RequestParser()
        #: the last answer ended the exchange: nothing more is answered
        self.closing = False

    def feed(self, data) -> None:
        self._parser.feed(data)

    def next_request(self) -> "HttpRequest | None":
        """The next ready request, or None (none buffered, or closing)."""
        if self.closing:
            return None
        return self._parser.next_message()

    def answer(self, request: HttpRequest, response: HttpResponse) -> bytes:
        """The wire bytes of ``response`` to ``request``.  ``Connection:
        close`` in either direction ends the exchange."""
        if not request.keep_alive:
            response.headers.set("Connection", "close")
        self.closing = not response.keep_alive
        return serialize_response(response)

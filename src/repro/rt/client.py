"""Pooling HTTP client for the threaded runtime.

Keeps one small pool of persistent connections per endpoint (the paper's
WsThreads hold "an open connection for a predefined time with a specified
WS").  Every decision — reuse, stale-retry, the burst's replay/poison rules —
is :mod:`repro.http.session`'s; this module is its blocking wire.

Two access patterns:

- :meth:`HttpClient.request` — one blocking request/response exchange,
  connection borrowed from the pool for its duration.
- :meth:`HttpClient.lease` — check a connection out for *exclusive* use
  (a WsThread holding its destination), then :meth:`ConnectionLease.pipeline`
  a whole drained batch as one write burst and read the responses in
  order (HTTP/1.1 pipelining).  Several messages then ride one connection
  as one round trip instead of one round trip each — the paper's "more
  efficient than opening multiple short lived connections", taken at its
  word.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

from repro.errors import ReproError, SoapError, XmlError
from repro.http import HttpRequest, HttpResponse
from repro.http.session import (
    POOL_PER_ENDPOINT,
    RECV,
    RECV_CHUNK,
    SEND,
    ClientSession,
    Lease,
    soap_post,
)
from repro.obs.metrics import MetricsRegistry
from repro.soap import Envelope
from repro.transport.base import Connector, parse_http_url


class HttpClient(ClientSession):
    """Blocking HTTP client with per-endpoint connection reuse."""

    #: the ``User-Agent`` of every request that does not name its own
    user_agent = "repro-client/1.0"

    def __init__(
        self,
        connector: Connector,
        connect_timeout: float = 5.0,
        response_timeout: float = 30.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(
            metrics, "rt_client", "client", time.monotonic, response_timeout,
            POOL_PER_ENDPOINT, self.user_agent,
        )
        self._connector = connector
        self.connect_timeout = connect_timeout

    def _run(self, steps):
        """Perform the session's effects with blocking calls; whatever a
        call raises is the session's to handle or pass on."""
        try:
            op, stream, arg = next(steps)
            while True:
                try:
                    if op is RECV:
                        result = stream.recv(RECV_CHUNK, timeout=arg)
                    elif op is SEND:
                        result = stream.send(arg)
                    else:
                        result = self._connector.connect(arg, timeout=self.connect_timeout)
                except BaseException as exc:
                    op, stream, arg = steps.throw(exc)
                else:
                    op, stream, arg = steps.send(result)
        except StopIteration as done:
            return done.value
        finally:
            steps.close()

    # -- request execution -------------------------------------------------
    def request(self, url: str, request: HttpRequest) -> HttpResponse:
        """Send one request to ``url``'s endpoint and read the response.

        The request's ``target`` is overwritten with the URL's path.
        Retries exactly once on a stale pooled connection; a 503 is
        returned like any other response.
        """
        return self._run(self._request(url, request))

    # -- connection leases & pipelining ------------------------------------
    def lease(self, url: str) -> "ConnectionLease":
        """Check a connection to ``url``'s endpoint out for exclusive use.

        The lease holds one pooled (or freshly opened) connection that no
        concurrent :meth:`request` call can touch until
        :meth:`ConnectionLease.release` returns it.  This is the WsThread
        contract: one persistent connection per destination, drained
        batches ride it as pipelined bursts.
        """
        endpoint, _path = parse_http_url(url)
        return ConnectionLease(self, endpoint)

    def pipeline(
        self, url: str, requests: Sequence[HttpRequest]
    ) -> "list[HttpResponse | ReproError]":
        """Send ``requests`` to ``url``'s endpoint as one pipelined burst.

        Every request gets the endpoint's Host and User-Agent and keeps
        its own target path (the WsThread drain: one destination
        endpoint, any paths on it), the burst rides a temporary lease,
        and the result list is aligned with the input: each slot holds the
        :class:`HttpResponse` or the exception that request ended with.
        """
        return self._run(self._pipeline_url(url, list(requests)))

    # -- SOAP conveniences ---------------------------------------------------
    def post_envelope(self, url: str, envelope: Envelope) -> HttpResponse:
        return self.request(
            url, soap_post(envelope.to_bytes(), content_type=envelope.version.content_type)
        )

    def call_soap(self, url: str, envelope: Envelope) -> Envelope | None:
        """POST an envelope; parse the reply envelope (None for 202/204).

        Raises :class:`~repro.errors.SoapError` if the response is not a
        SOAP message; fault envelopes are returned, not raised — callers
        decide (the dispatcher must *relay* faults, not swallow them).
        """
        response = self.post_envelope(url, envelope)
        if response.status in (202, 204) or not response.body:
            return None
        try:
            return Envelope.from_bytes(response.body)
        except (XmlError, SoapError) as exc:
            raise SoapError(
                f"non-SOAP response (HTTP {response.status}) from {url}: {exc}"
            ) from exc


class ConnectionLease(Lease):
    """Exclusive checkout of one connection to an endpoint.

    Created by :meth:`HttpClient.lease`.  The leased stream is removed
    from the shared pool, so nothing else can interleave bytes on it;
    :meth:`release` returns it (if still at a clean message boundary) or
    discards it.

    :meth:`pipeline` is the drain-path workhorse: it serialises a batch of
    prepared requests back-to-back, writes them as **one burst**, then
    reads the responses in order.  When the burst is cut short — the
    server closes mid-burst, or answers with ``Connection: close`` — the
    undelivered tail is *replayed serially* (each tail request exactly
    once, on ordinary pooled connections).  A response timeout poisons the
    tail instead of replaying it: a slow server may still be processing
    those requests, and replaying would deliver them twice.
    """

    def __init__(self, client: HttpClient, endpoint) -> None:
        super().__init__(client, endpoint, *client._run(client._checkout(endpoint)))

    def __enter__(self) -> "ConnectionLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def pipeline(
        self, requests: "Iterable[HttpRequest]"
    ) -> "list[HttpResponse | ReproError]":
        """One write burst of already-prepared requests; responses in order.

        Returns a list aligned with ``requests``: an :class:`HttpResponse`
        per answered request, or the exception that request ended with.
        Never raises for per-request failures — callers keep per-item
        retry/hold semantics.
        """
        return self._client._run(self._burst(requests))

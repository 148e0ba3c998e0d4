"""RPC-Dispatcher on the threaded runtime (paper §4.1–4.2).

Every decision is :class:`~repro.core.rpc.RpcCore`'s; this driver performs
the one forward it yields as a blocking call on an
:class:`~repro.rt.client.HttpClient`, on the server worker thread that
carries the client connection.
"""

from __future__ import annotations

from repro.http import HttpRequest, HttpResponse
from repro.core.rpc import RpcCore


class RpcDispatcher(RpcCore):
    """Forward SOAP-RPC requests from ``/<prefix>/<logical>`` to services."""

    def handle_request(
        self, request: HttpRequest, peer: str | None = None
    ) -> HttpResponse:
        """:class:`~repro.rt.server.HttpServer` handler."""
        steps = self.forward(request)
        try:
            _op, url, forward = next(steps)
            try:
                response = self.client.request(url, forward)
            except BaseException as exc:
                steps.throw(exc)
            steps.send(response)
        except StopIteration as done:
            return done.value

"""The RPC-Dispatcher's decisions, written once (paper §4.1–4.2).

The paper's first artefact is an HTTP proxy that copies each SOAP call
"to a new XML document that is then used in the RPC invocation between
RPC-Dispatcher and the target WS" — its place for "security or validity
checks".  :meth:`RpcCore.forward` is one generator in the effect style of
:meth:`~repro.core.dispatch.DispatchCore.deliver`; the drivers (``rt``
blocking, ``aio`` awaited, ``sim`` a ``yield from``) only perform its one
``REQUEST``.  Whatever performs it holds the client's connection for the
whole exchange: that is why RPC forwarding inherits Table 1's HTTP/TCP
timeout limits.
"""

from __future__ import annotations

from repro.errors import (
    HttpParseError,
    RegistryUnavailable,
    ReproError,
    SoapError,
    TransportError,
    UnknownServiceError,
    XmlError,
)
from repro.http import Headers, HttpRequest, HttpResponse
from repro.http.session import soap_post
from repro.obs.metrics import default_registry
from repro.obs.trace import default_trace_store, extract_trace
from repro.rt.service import RETRY_AFTER, soap_fault_response
from repro.soap import Fault, LazyEnvelope, fastpath_counter, parse_envelope
from repro.transport.base import parse_http_url
from repro.util.clock import Clock, MonotonicClock
from repro.util.stats import Counter
from repro.core.dispatch import REQUEST
from repro.core.registry import ServiceRegistry
from repro.core.routing import extract_logical

#: the default validity bound on a request body (bytes)
MAX_BODY = 4 * 1024 * 1024
#: the path under which the dispatcher serves ``/rpc/<logical name>``
MOUNT_PREFIX = "/rpc"


class RpcCore:
    """One RPC-Dispatcher's decisions; a driver performs the forward on
    ``client`` (an :class:`~repro.rt.client.HttpClient`, an
    :class:`~repro.aio.AioHttpClient`, a simulated pool), which the core
    never calls.
    """

    #: bucket width (seconds) of ``rpcd_forward_seconds``, set by the driver
    time_bucket = 0.001
    #: validity check: larger request bodies are refused with 413
    max_body = MAX_BODY
    #: the driver's clock (the simulator's is its own)
    clock: Clock = MonotonicClock()

    def __init__(self, registry: ServiceRegistry, client) -> None:
        self.registry = registry
        self.client = client
        self.counters = Counter()
        self.metrics = default_registry()
        self.traces = default_trace_store()
        self._m_forwarded = self.metrics.counter(
            "rpcd_forwarded_total", "RPC exchanges proxied to a service"
        )
        self._m_rejected = self.metrics.counter(
            "rpcd_rejected_total", "RPC requests rejected, by reason"
        )
        self._m_failed = self.metrics.counter(
            "rpcd_failed_total", "RPC forwards that could not reach the service"
        )
        self._m_forward_time = self.metrics.histogram(
            "rpcd_forward_seconds",
            "blocking dispatcher-to-service exchange time",
            bucket_width=self.time_bucket,
        )
        self._m_fastpath = fastpath_counter(self.metrics)

    @property
    def stats(self) -> dict[str, int]:
        return self.counters.as_dict()

    def forward(self, request: HttpRequest):
        """Steps: answer one client request.  At most one effect,
        ``(REQUEST, url, request)``, sent the service's response or thrown
        what performing it raised: a wire error is a 502, anything else
        propagates.  Returns the reply."""
        if request.method != "POST":
            return HttpResponse(status=405, body=b"RPC dispatcher accepts POST")
        if len(request.body) > self.max_body:
            return self._reject("body_too_large", 413, "request body too large")
        try:
            logical = extract_logical(request.target, MOUNT_PREFIX)
        except ReproError as exc:
            return self._reject("bad_target", 404, str(exc))
        try:
            envelope = parse_envelope(request.body, counter=self._m_fastpath)
        except (XmlError, SoapError) as exc:
            return self._reject("invalid_soap", 400, f"invalid SOAP request: {exc}")
        trace = extract_trace(envelope)
        try:
            physical = self.registry.resolve(logical)
        except UnknownServiceError as exc:
            return self._reject("unknown_service", 404, str(exc))
        except RegistryUnavailable as exc:
            return self._retry_later(self._reject(
                "registry_unavailable", 503, str(exc), code="Server"
            ))
        forward = soap_post(
            request.body if isinstance(envelope, LazyEnvelope) else envelope.to_bytes(),
            parse_http_url(physical)[1],
            request.headers.get("Content-Type") or envelope.version.content_type,
        )
        soap_action = request.headers.get("SOAPAction")
        if soap_action is not None:
            forward.headers.set("SOAPAction", soap_action)
        t_send = self.clock.now()
        try:
            response = yield REQUEST, physical, forward
        except (TransportError, HttpParseError) as exc:  # the wire: 502
            self.counters.inc("failed")
            self._m_failed.inc()
            return soap_fault_response(
                Fault("Server", f"cannot reach {logical}: {exc}"), status=502
            )
        t_done = self.clock.now()
        self.counters.inc("forwarded")
        self._m_forwarded.inc()
        self._m_forward_time.observe(t_done - t_send)
        if trace is not None:
            self.traces.record(
                trace.trace_id, "forward", "rpcd", t_send, t_done,
                parent_id=trace.parent_span_id, logical=logical, dest=physical,
            )
        headers = Headers()
        content_type = response.headers.get("Content-Type")
        if content_type:
            headers.set("Content-Type", content_type)
        return HttpResponse(status=response.status, headers=headers, body=response.body)

    def _reject(
        self, reason: str, status: int, text: str, code: str = "Client"
    ) -> HttpResponse:
        self.counters.inc("rejected")
        self._m_rejected.labels(reason=reason).inc()
        return soap_fault_response(Fault(code, text), status=status)

    def _retry_later(self, response: HttpResponse) -> HttpResponse:
        response.headers.set("Retry-After", RETRY_AFTER)
        return response

"""RPC-Dispatcher: the SOAP-aware HTTP forwarding proxy (paper §4.1–4.2).

"The first phase of the implementation consisted of constructing a simple
HTTP proxy, called the RPC-Dispatcher, that forwards RPC invocations.  It
uses one thread to parse the HTTP header, copy the XML message from the
request to a new XML document that is then used in the RPC invocation
between RPC-Dispatcher and the target WS.  After the RPC-Dispatcher
receives the result from the WS [it] copies it to the response for the
client and sends it back on the same connection."

Faithfully, forwarding here re-parses and re-serializes the SOAP document
(a *new* XML document — giving the dispatcher its chance to do "security
or validity checks"), rather than relaying opaque bytes.  The worker
thread that carries the client connection blocks for the whole forwarded
exchange, which is exactly why RPC forwarding inherits the HTTP/TCP
timeout limits Table 1 describes.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable

from repro.errors import (
    AuthError,
    ReproError,
    SoapError,
    TransportError,
    UnknownServiceError,
    XmlError,
)
from repro.http import Headers, HttpRequest, HttpResponse
from repro.obs.logkv import component_logger, log_event
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.trace import TraceStore, default_trace_store, extract_trace
from repro.rt.client import HttpClient
from repro.rt.service import soap_fault_response
from repro.soap import (
    Envelope,
    Fault,
    LazyEnvelope,
    fastpath_counter,
    parse_envelope,
)
from repro.util.clock import Clock, MonotonicClock
from repro.core.registry import ServiceRegistry
from repro.core.routing import extract_logical


class RpcDispatcher:
    """Forward SOAP-RPC requests from ``/<prefix>/<logical>`` to services.

    Parameters
    ----------
    registry:
        Logical→physical resolution.
    client:
        Pooled HTTP client used for the dispatcher→service leg.
    mount_prefix:
        Path prefix clients POST to (default ``/rpc``).
    inspector:
        Optional "message security inspection" hook: called with the parsed
        request envelope and the logical name; raise
        :class:`~repro.errors.AuthError` (or any ReproError) to reject.
    max_body:
        Validity check: reject larger request bodies outright.
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        client: HttpClient,
        mount_prefix: str = "/rpc",
        inspector: Callable[[Envelope, str], None] | None = None,
        max_body: int = 4 * 1024 * 1024,
        balancer: object | None = None,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
        traces: TraceStore | None = None,
        max_inflight: int | None = None,
        shed_retry_after: float = 1.0,
    ) -> None:
        self.registry = registry
        self.client = client
        self.mount_prefix = mount_prefix
        self.inspector = inspector
        self.max_body = max_body
        #: admission control: concurrent forwards above this are shed
        #: with 503 Retry-After (each forward blocks a server thread, so
        #: this bounds the dispatcher's exposure to slow services)
        self.max_inflight = max_inflight
        self.shed_retry_after = shed_retry_after
        self._inflight = 0
        #: optional BalancerPolicy receiving on_start/on_finish feedback
        self.balancer = balancer
        self.clock = clock or MonotonicClock()
        self.metrics = metrics if metrics is not None else default_registry()
        self.traces = traces if traces is not None else default_trace_store()
        self._log = component_logger("rpcd")
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
            bucket_width=0.001,
        )
        self._m_shed = self.metrics.counter(
            "dispatcher_shed_total",
            "requests shed by admission control, by component",
        )
        self._m_fastpath = fastpath_counter(self.metrics)
        self._lock = threading.Lock()
        self.forwarded = 0
        self.failed = 0
        self.rejected = 0
        self.shed = 0

    def _count(self, field: str) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + 1)

    def _reject(self, reason: str, trace_id: str | None = None) -> None:
        self._count("rejected")
        self._m_rejected.labels(reason=reason).inc()
        log_event(
            self._log, logging.WARNING, "reject",
            trace=trace_id, reason=reason,
        )

    # -- HttpServer handler --------------------------------------------------
    def handle_request(
        self, request: HttpRequest, peer: str | None = None
    ) -> HttpResponse:
        if request.method != "POST":
            return HttpResponse(status=405, body=b"RPC dispatcher accepts POST")
        if self.max_inflight is not None:
            with self._lock:
                if self._inflight >= self.max_inflight:
                    shed = True
                else:
                    shed = False
                    self._inflight += 1
            if shed:
                self._count("shed")
                self._m_shed.labels(component="rpcd").inc()
                log_event(
                    self._log, logging.WARNING, "shed",
                    max_inflight=self.max_inflight,
                )
                response = soap_fault_response(
                    Fault("Server", "dispatcher overloaded"), status=503
                )
                response.headers.set(
                    "Retry-After", f"{self.shed_retry_after:g}"
                )
                return response
            try:
                return self._handle_admitted(request, peer)
            finally:
                with self._lock:
                    self._inflight -= 1
        return self._handle_admitted(request, peer)

    def _handle_admitted(
        self, request: HttpRequest, peer: str | None = None
    ) -> HttpResponse:
        if len(request.body) > self.max_body:
            self._reject("body_too_large")
            return soap_fault_response(
                Fault("Client", "request body too large"), status=413
            )
        try:
            logical = extract_logical(request.target, self.mount_prefix)
        except ReproError as exc:
            self._reject("bad_target")
            return soap_fault_response(Fault("Client", str(exc)), status=404)

        # Validity-check the XML message.  When the scanner proves the
        # envelope shape without parsing the Body, the original bytes are
        # forwarded verbatim; messages it cannot prove safe get the
        # paper's copy-to-a-new-document (parse + re-serialize).
        try:
            envelope = parse_envelope(request.body, counter=self._m_fastpath)
        except (XmlError, SoapError) as exc:
            self._reject("invalid_soap")
            return soap_fault_response(
                Fault("Client", f"invalid SOAP request: {exc}"), status=400
            )
        if isinstance(envelope, LazyEnvelope):
            forward_body = request.body
        else:
            forward_body = envelope.to_bytes()

        trace = extract_trace(envelope)
        trace_id = trace.trace_id if trace else None
        log_event(
            self._log, logging.DEBUG, "admit", trace=trace_id, logical=logical
        )

        if self.inspector is not None:
            try:
                self.inspector(envelope, logical)
            except AuthError as exc:
                self._reject("auth", trace_id)
                return soap_fault_response(Fault("Client", str(exc)), status=401)
            except ReproError as exc:
                self._reject("inspector", trace_id)
                return soap_fault_response(Fault("Client", str(exc)), status=403)

        try:
            physical = self.registry.resolve(logical)
        except UnknownServiceError as exc:
            self._reject("unknown_service", trace_id)
            return soap_fault_response(Fault("Client", str(exc)), status=404)

        headers = Headers()
        content_type = request.headers.get("Content-Type")
        headers.set("Content-Type", content_type or envelope.version.content_type)
        soap_action = request.headers.get("SOAPAction")
        if soap_action is not None:
            headers.set("SOAPAction", soap_action)
        headers.add("Via", f"1.1 rpc-dispatcher")
        forward = HttpRequest(
            "POST", "/", headers=headers, body=forward_body
        )
        if self.balancer is not None:
            self.balancer.on_start(physical)
        t_send = self.clock.now()
        try:
            response = self.client.request(physical, forward)
        except TransportError as exc:
            self._count("failed")
            self._m_failed.inc()
            log_event(
                self._log, logging.WARNING, "drop",
                trace=trace_id, reason="unreachable", dest=physical,
            )
            return soap_fault_response(
                Fault("Server", f"cannot reach {logical}: {exc}"), status=502
            )
        finally:
            if self.balancer is not None:
                self.balancer.on_finish(physical)
        t_done = self.clock.now()
        self._count("forwarded")
        self._m_forwarded.inc()
        self._m_forward_time.observe(t_done - t_send)
        if trace is not None:
            self.traces.record(
                trace.trace_id, "forward", "rpcd",
                t_send, t_done,
                parent_id=trace.parent_span_id,
                logical=logical, dest=physical,
            )
        log_event(
            self._log, logging.DEBUG, "forward",
            trace=trace_id, logical=logical, dest=physical,
        )
        out_headers = Headers()
        ct = response.headers.get("Content-Type")
        if ct:
            out_headers.set("Content-Type", ct)
        out_headers.add("Via", "1.1 rpc-dispatcher")
        return HttpResponse(
            status=response.status, headers=out_headers, body=response.body
        )

    @property
    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "forwarded": self.forwarded,
                "failed": self.failed,
                "rejected": self.rejected,
                "shed": self.shed,
            }

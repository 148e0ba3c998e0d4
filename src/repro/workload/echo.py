"""Echo web service — the paper's test workload.

"Essentially it is very similar to the ping command.  We estimate the
size of our test SOAP/HTTP message is about 220 bytes for HTTP header and
263 bytes for the XML message which makes a total of 483 bytes."

:func:`make_echo_request` produces an RPC echo whose XML body is padded to
exactly 263 bytes; :func:`make_echo_message` is the WS-Addressing variant
used in messaging mode (same body, addressing headers on top), and
:class:`EchoMessageTemplate` writes it once for callers that send it over
and over with a fresh MessageID.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs.trace import (
    TraceContext,
    TraceStore,
    attach_trace,
    default_trace_store,
    extract_trace,
    propagate_trace,
)
from repro.rt.client import HttpClient
from repro.rt.service import RequestContext
from repro.util.clock import MonotonicClock
from repro.soap import (
    Envelope,
    RpcRequest,
    RpcResponse,
    build_rpc_request,
    build_rpc_response,
    parse_rpc_request,
)
from repro.util.ids import IdGenerator
from repro.wsa import AddressingHeaders, EndpointReference, make_reply_headers
from repro.xmlmini.writer import escape_text

ECHO_NS = "urn:repro:echo"

#: XML body size target from the paper (bytes, including XML declaration).
PAPER_XML_BYTES = 263
#: Total message estimate from the paper (HTTP header + XML body).
PAPER_TOTAL_BYTES = 483


def _padded_payload(target_bytes: int) -> str:
    """Payload text sizing the serialized RPC envelope to ``target_bytes``."""
    probe = build_rpc_request(RpcRequest(ECHO_NS, "echo", [("text", "")]))
    overhead = len(probe.to_bytes())
    pad = max(0, target_bytes - overhead)
    return "x" * pad


_PAYLOAD_CACHE: dict[int, str] = {}


def make_echo_request(target_bytes: int = PAPER_XML_BYTES) -> Envelope:
    """A plain SOAP-RPC echo request sized like the paper's test packet."""
    text = _PAYLOAD_CACHE.get(target_bytes)
    if text is None:
        text = _padded_payload(target_bytes)
        _PAYLOAD_CACHE[target_bytes] = text
    return build_rpc_request(RpcRequest(ECHO_NS, "echo", [("text", text)]))


def make_echo_message(
    to: str,
    message_id: str,
    reply_to: EndpointReference | None = None,
    target_bytes: int = PAPER_XML_BYTES,
) -> Envelope:
    """A one-way WS-Addressing echo message (messaging mode)."""
    envelope = make_echo_request(target_bytes)
    headers = AddressingHeaders(
        to=to,
        action=f"{ECHO_NS}/echo",
        message_id=message_id,
        reply_to=reply_to,
    )
    headers.attach(envelope)
    return envelope


class EchoMessageTemplate:
    """:func:`make_echo_message` written once, with a slot for the MessageID.

    The paper's test client sends one fixed message over and over, "very
    similar to the ping command"; a caller that does the same renders each
    message by splicing its id into the slot instead of building and
    writing an envelope.  ``render(message_id)`` is byte for byte
    ``make_echo_message(to, message_id, reply_to).to_bytes()``.
    """

    #: the MessageID the template is written with; it must occur nowhere
    #: else in the message
    SLOT = "urn:repro:echo:message-id-slot"

    __slots__ = ("_head", "_tail")

    def __init__(self, to: str, reply_to: EndpointReference | None = None) -> None:
        document = make_echo_message(to, self.SLOT, reply_to).to_bytes()
        parts = document.split(self.SLOT.encode())
        if len(parts) != 2:
            raise ValueError(
                f"the MessageID slot occurs {len(parts) - 1} times in the echo message"
            )
        self._head, self._tail = parts

    def render(self, message_id: str) -> bytes:
        """The message with ``message_id`` as its MessageID (wire form)."""
        return b"".join((self._head, escape_text(message_id).encode(), self._tail))


@dataclass
class EchoReply:
    """What a messaging echo sends back for one request."""

    envelope: Envelope
    #: the reply's ``wsa:To``: the request's ReplyTo address
    to: str
    #: the request's trace context, None for an untraced request
    trace: TraceContext | None
    #: the service span the reply's trace context names as its parent
    span_id: str | None


def echo_reply(
    envelope: Envelope, ids: IdGenerator, traces: TraceStore
) -> EchoReply | None:
    """The messaging echo's answer to ``envelope``: the echoed text as a
    new one-way message to the request's ``wsa:ReplyTo``, relating to its
    MessageID, or None when there is no ReplyTo to answer.

    A reply is a *new* envelope, so forwarding will not copy the request's
    trace header onto it: a traced request's context is continued under a
    pre-allocated service span id, which the caller records once the
    service's work is done.  A malformed request raises (``SoapError``,
    ``XmlError``).
    """
    call = parse_rpc_request(envelope)
    request_headers = AddressingHeaders.from_envelope(envelope)
    if request_headers.reply_to is None or request_headers.reply_to.is_anonymous:
        return None
    reply = build_rpc_response(
        RpcResponse(call.interface_ns, call.operation, [("return", call.param("text") or "")]),
        version=envelope.version,
    )
    headers = make_reply_headers(request_headers, ids.next())
    headers.attach(reply)
    trace = extract_trace(envelope)
    span_id = None
    if trace is not None:
        span_id = traces.new_span_id()
        attach_trace(reply, trace.child(span_id))
    return EchoReply(reply, headers.to or "", trace, span_id)


class EchoService:
    """RPC echo: replies in-band with the received text."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls = 0

    def handle(self, envelope: Envelope, ctx: RequestContext) -> Envelope:
        call = parse_rpc_request(envelope)
        with self._lock:
            self.calls += 1
        response = build_rpc_response(
            RpcResponse(
                call.interface_ns, call.operation, [("return", call.param("text") or "")]
            ),
            version=envelope.version,
        )
        # in-band reply: continue the request's trace context, if any
        propagate_trace(envelope, response)
        return response


class AsyncEchoService:
    """Messaging echo: accepts one-way requests, sends the response as a
    new one-way message to the request's ``wsa:ReplyTo``.

    This is the paper's "messaging based service": no reply rides the
    inbound connection, so there is "no transport time limit on sending
    response".  Failures to reach the ReplyTo (e.g. a firewalled client
    addressed directly — Figure 6's worst case) are counted, not raised.
    """

    def __init__(
        self,
        http: HttpClient,
        ids: IdGenerator | None = None,
    ) -> None:
        self.http = http
        self.ids = ids or IdGenerator("echo-reply")
        self.clock = MonotonicClock()
        self.traces = default_trace_store()
        self._lock = threading.Lock()
        self.received = 0
        self.replies_sent = 0
        self.replies_blocked = 0

    def handle(self, envelope: Envelope, ctx: RequestContext) -> None:
        t_recv = self.clock.now()
        reply = echo_reply(envelope, self.ids, self.traces)
        with self._lock:
            self.received += 1
        if reply is None:
            return None  # nothing to reply to
        if reply.trace is not None:
            self.traces.record(
                reply.trace.trace_id, "service", "echo",
                t_recv, self.clock.now(),
                span_id=reply.span_id, parent_id=reply.trace.parent_span_id,
            )
        try:
            self.http.post_envelope(reply.to, reply.envelope)
        except Exception:  # noqa: BLE001 - blocked by firewall / unreachable
            with self._lock:
                self.replies_blocked += 1
            return None
        with self._lock:
            self.replies_sent += 1
        return None

"""Pure WS-Addressing rewrite rules used by the MSG-Dispatcher.

The paper (Fig. 3): CxThreads "map logical address with physical address
of the WS and parse the WS-Addressing message of the request to modify
client's information with MSG-Dispatcher's return address".  These
functions implement exactly that transformation, with no I/O, so the same
rules drive the threaded dispatcher, the simulated dispatcher, and the
property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AddressingError
from repro.soap.envelope import Envelope
from repro.wsa.constants import WSA_NS
from repro.wsa.epr import EndpointReference
from repro.wsa.headers import AddressingHeaders


@dataclass
class RewriteResult:
    """Outcome of a forwarding rewrite.

    ``envelope`` is the rewritten message to send to ``physical_to``.
    ``original_reply_to`` is where the *client* wanted replies; the
    dispatcher records it keyed by ``message_id`` so the response, which
    will arrive with RelatesTo = message_id, can be routed back.
    """

    envelope: Envelope
    physical_to: str
    message_id: str
    original_reply_to: EndpointReference | None
    original_fault_to: EndpointReference | None
    #: True when every EPR the service may answer to was passed through:
    #: no reply or fault will come back by way of the dispatcher
    passed_through: bool = False


def rewrite_for_forwarding(
    envelope: Envelope,
    physical_to: str,
    dispatcher_address: str,
    passthrough_reply_prefixes: tuple[str, ...] = (),
    headers: AddressingHeaders | None = None,
) -> RewriteResult:
    """Rewrite an inbound client message for forwarding to the service.

    - ``wsa:To`` becomes the physical service address.
    - ``wsa:ReplyTo``/``wsa:FaultTo`` are replaced with the dispatcher's own
      address, so the (possibly firewalled) service only ever talks back to
      the dispatcher.
    - Exception, decided **per EPR**: a ReplyTo or FaultTo whose address
      starts with one of ``passthrough_reply_prefixes`` is left untouched.
      The dispatcher uses this for its own co-located WS-MsgBox — it
      *knows* that address is publicly reachable, so the service can "send
      response messages to the WS-MsgBox mailbox" directly (paper §4.3.2)
      without a relay hop.  A FaultTo never rides on ReplyTo's decision: a
      private FaultTo beside a mailbox ReplyTo is still rewritten.
    - The client's original reply/fault EPRs are returned to the caller for
      correlation state in every case.

    ``headers``, when the caller has already decoded ``envelope``'s
    addressing block, saves decoding it again.  Neither it nor the input
    envelope is mutated.
    """
    if headers is None:
        headers = AddressingHeaders.from_envelope(envelope)
    message_id = headers.require_message_id()
    headers.require_to()

    original_reply_to = headers.reply_to
    original_fault_to = headers.fault_to

    # attach() writes every WS-Addressing block afresh from new_headers, so
    # only the other blocks are copied; to_header_elements() copies what it
    # takes from the EPRs, so new_headers may share them with ``headers``
    out = envelope.copy(without=WSA_NS)
    new_headers = AddressingHeaders(
        to=physical_to,
        action=headers.action,
        message_id=message_id,
        relates_to=headers.relates_to,
        from_=headers.from_,
        reply_to=original_reply_to,
        fault_to=original_fault_to,
        reference_headers=headers.reference_headers,
    )
    prefixes = tuple(passthrough_reply_prefixes)
    reply_passes = original_reply_to is not None and (
        original_reply_to.address.startswith(prefixes)
    )
    # an absent FaultTo stays absent: faults then follow ReplyTo
    fault_passes = original_fault_to is None or (
        original_fault_to.address.startswith(prefixes)
    )
    if not reply_passes:
        new_headers.reply_to = EndpointReference(dispatcher_address)
    if not fault_passes:
        new_headers.fault_to = EndpointReference(dispatcher_address)
    # Either way the original EPRs are returned for correlation: even a
    # passed-through ReplyTo needs it when an RPC-style service answers
    # in-band and the dispatcher must translate that reply (Table 1 q3).
    new_headers.attach(out)
    return RewriteResult(
        envelope=out,
        physical_to=physical_to,
        message_id=message_id,
        original_reply_to=original_reply_to,
        original_fault_to=original_fault_to,
        passed_through=reply_passes and fault_passes,
    )


def make_reply_headers(
    request_headers: AddressingHeaders,
    reply_message_id: str,
    action_suffix: str = "Response",
) -> AddressingHeaders:
    """Build the header block for a reply to ``request_headers``.

    Per WS-Addressing: reply goes to ``ReplyTo`` (or anonymous), carries
    ``RelatesTo`` = the request's MessageID, and echoes the ReplyTo EPR's
    reference properties as headers.
    """
    if request_headers.message_id is None:
        raise AddressingError("cannot reply to a message without MessageID")
    target = request_headers.reply_to or EndpointReference.anonymous()
    action = None
    if request_headers.action:
        action = request_headers.action + action_suffix
    return AddressingHeaders(
        to=target.address,
        action=action,
        message_id=reply_message_id,
        relates_to=[request_headers.message_id],
        reference_headers=[p.copy() for p in target.reference_properties],
    )


def relates_to_of(envelope: Envelope) -> list[str]:
    """RelatesTo URIs of a message (correlation keys for responses)."""
    return AddressingHeaders.from_envelope(envelope).relates_to

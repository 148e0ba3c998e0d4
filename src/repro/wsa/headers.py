"""The WS-Addressing message-information header block.

:class:`AddressingHeaders` is the decoded view the dispatcher works with;
it converts to and from the list of SOAP header elements carried by an
:class:`~repro.soap.Envelope`.  Cardinality rules from the 2004/08 spec
are enforced: ``To``/``Action``/``MessageID`` at most once, ``RelatesTo``
may repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AddressingError
from repro.soap.envelope import Envelope
from repro.wsa.constants import WSA_NS
from repro.wsa.epr import EndpointReference
from repro.xmlmini import Element, QName

_Q_TO = QName(WSA_NS, "To")
_Q_ACTION = QName(WSA_NS, "Action")
_Q_MSGID = QName(WSA_NS, "MessageID")
_Q_RELATES = QName(WSA_NS, "RelatesTo")
_Q_FROM = QName(WSA_NS, "From")
_Q_REPLYTO = QName(WSA_NS, "ReplyTo")
_Q_FAULTTO = QName(WSA_NS, "FaultTo")

#: field of each header, by local name in WSA_NS
_SINGLETON_TEXT = {"To": "to", "Action": "action", "MessageID": "message_id"}
_EPR_FIELDS = {"From": "from_", "ReplyTo": "reply_to", "FaultTo": "fault_to"}


@dataclass
class AddressingHeaders:
    """Decoded WS-Addressing headers of one message."""

    to: str | None = None
    action: str | None = None
    message_id: str | None = None
    relates_to: list[str] = field(default_factory=list)
    from_: EndpointReference | None = None
    reply_to: EndpointReference | None = None
    fault_to: EndpointReference | None = None
    #: Reference-property headers echoed from an EPR (kept verbatim).
    reference_headers: list[Element] = field(default_factory=list)

    # -- envelope mapping -------------------------------------------------
    def to_header_elements(self) -> list[Element]:
        out: list[Element] = []
        if self.to is not None:
            out.append(Element(_Q_TO, text=self.to))
        if self.action is not None:
            out.append(Element(_Q_ACTION, text=self.action))
        if self.message_id is not None:
            out.append(Element(_Q_MSGID, text=self.message_id))
        for rel in self.relates_to:
            out.append(Element(_Q_RELATES, text=rel))
        if self.from_ is not None:
            out.append(self.from_.to_element(_Q_FROM))
        if self.reply_to is not None:
            out.append(self.reply_to.to_element(_Q_REPLYTO))
        if self.fault_to is not None:
            out.append(self.fault_to.to_element(_Q_FAULTTO))
        out.extend(h.copy() for h in self.reference_headers)
        return out

    def attach(self, envelope: Envelope) -> Envelope:
        """Replace the envelope's WSA headers with this block (in place)."""
        envelope.remove_headers(WSA_NS)
        envelope.headers.extend(self.to_header_elements())
        return envelope

    @classmethod
    def from_envelope(cls, envelope: Envelope) -> "AddressingHeaders":
        """Decode the WSA headers of an envelope (ignores other headers)."""
        hdr = cls()
        seen: set[str] = set()
        for el in envelope.headers:
            name = el.name
            if name.ns != WSA_NS:
                continue
            # keyed by local name: the namespace is settled, and a str hashes in C
            local = name.local
            if local in _SINGLETON_TEXT:
                if local in seen:
                    raise AddressingError(f"duplicate {name.clark()} header")
                seen.add(local)
                setattr(hdr, _SINGLETON_TEXT[local], el.text.strip())
            elif local == "RelatesTo":
                hdr.relates_to.append(el.text.strip())
            elif local in _EPR_FIELDS:
                if local in seen:
                    raise AddressingError(f"duplicate {name.clark()} header")
                seen.add(local)
                setattr(hdr, _EPR_FIELDS[local], EndpointReference.from_element(el))
            else:
                raise AddressingError(f"unknown WS-Addressing header {name.clark()}")
        return hdr

    def require_to(self) -> str:
        if not self.to:
            raise AddressingError("message has no wsa:To header")
        return self.to

    def require_message_id(self) -> str:
        if not self.message_id:
            raise AddressingError("message has no wsa:MessageID header")
        return self.message_id

    def copy(self) -> "AddressingHeaders":
        return AddressingHeaders(
            to=self.to,
            action=self.action,
            message_id=self.message_id,
            relates_to=list(self.relates_to),
            from_=self.from_.copy() if self.from_ else None,
            reply_to=self.reply_to.copy() if self.reply_to else None,
            fault_to=self.fault_to.copy() if self.fault_to else None,
            reference_headers=[h.copy() for h in self.reference_headers],
        )

"""Endpoint references: an address URI plus opaque reference properties.

Reference properties are how the mailbox id rides along with the
WS-MsgBox endpoint address: the client's ReplyTo EPR carries
``<mb:MailboxId>`` as a reference property, which the dispatcher echoes as
headers on the reply message per the WS-Addressing binding rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AddressingError
from repro.wsa.constants import WSA_NS, WSA_ANONYMOUS
from repro.xmlmini import Element, QName

_Q_ADDRESS = QName(WSA_NS, "Address")
_Q_REFPROPS = QName(WSA_NS, "ReferenceProperties")


@dataclass
class EndpointReference:
    """A WS-Addressing endpoint reference (address + reference properties)."""

    address: str
    reference_properties: list[Element] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.address:
            raise AddressingError("EPR address must be non-empty")

    @property
    def is_anonymous(self) -> bool:
        return self.address == WSA_ANONYMOUS

    @classmethod
    def anonymous(cls) -> "EndpointReference":
        return cls(WSA_ANONYMOUS)

    # -- XML mapping -----------------------------------------------------
    def to_element(self, name: QName) -> Element:
        el = Element(name)
        el.add(Element(_Q_ADDRESS, text=self.address))
        if self.reference_properties:
            props = Element(_Q_REFPROPS)
            props.children.extend(p.copy() for p in self.reference_properties)
            el.children.append(props)
        return el

    @classmethod
    def from_element(cls, el: Element) -> "EndpointReference":
        addr_el = el.find(_Q_ADDRESS)
        if addr_el is None:
            raise AddressingError(
                f"EPR element <{el.name.clark()}> has no wsa:Address"
            )
        address = addr_el.text.strip()
        if not address:
            raise AddressingError("EPR wsa:Address is empty")
        props_el = el.find(_Q_REFPROPS)
        props = (
            [p.copy() for p in props_el.element_children()]
            if props_el is not None
            else []
        )
        return cls(address=address, reference_properties=props)

    def copy(self) -> "EndpointReference":
        return EndpointReference(
            self.address, [p.copy() for p in self.reference_properties]
        )

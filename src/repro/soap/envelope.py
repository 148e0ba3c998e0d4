"""SOAP envelope construction and parsing.

An :class:`Envelope` owns a list of header blocks (arbitrary
:class:`~repro.xmlmini.Element` trees, e.g. WS-Addressing headers) and one
body payload element (or a Fault).  The dispatcher forwards envelopes
whole, rewriting only addressing headers, so the model keeps unknown
headers and payloads byte-faithful through a parse/serialize round trip.
"""

from __future__ import annotations

from repro.errors import SoapError
from repro.soap.constants import SoapVersion
from repro.xmlmini import Element, QName, parse, write_document


class Envelope:
    """A SOAP message: headers + one body element.

    ``body`` may be None only for an empty-body message (used by some
    one-way acknowledgements).
    """

    __slots__ = ("version", "headers", "body")

    def __init__(
        self,
        body: Element | None,
        headers: list[Element] | None = None,
        version: SoapVersion = SoapVersion.V11,
    ) -> None:
        self.version = version
        self.headers: list[Element] = list(headers or [])
        self.body = body

    # -- header access -------------------------------------------------------
    def find_header(self, name: QName) -> Element | None:
        """First header block with the given qualified name, or None."""
        for h in self.headers:
            if h.name == name:
                return h
        return None

    def remove_headers(self, ns: str) -> list[Element]:
        """Remove and return all header blocks in namespace ``ns``."""
        removed = [h for h in self.headers if h.name.ns == ns]
        self.headers = [h for h in self.headers if h.name.ns != ns]
        return removed

    def copy(self, *, without: str | None = None) -> "Envelope":
        """Deep copy.  Header blocks in namespace ``without`` are left
        out instead of copied (the caller is about to replace them)."""
        return Envelope(
            self.body.copy() if self.body is not None else None,
            headers=[
                h.copy() for h in self.headers if without is None or h.name.ns != without
            ],
            version=self.version,
        )

    # -- XML mapping -------------------------------------------------------
    def to_element(self) -> Element:
        ns = self.version.ns
        root = Element(QName(ns, "Envelope"))
        if self.headers:
            header = Element(QName(ns, "Header"))
            header.children.extend(self.headers)
            root.children.append(header)
        body = Element(QName(ns, "Body"))
        if self.body is not None:
            body.children.append(self.body)
        root.children.append(body)
        return root

    def to_bytes(self) -> bytes:
        """Wire form: XML declaration + UTF-8 encoded document."""
        return write_document(self.to_element())

    @classmethod
    def from_element(cls, root: Element) -> "Envelope":
        if root.name.local != "Envelope" or root.name.ns is None:
            raise SoapError(f"root element is not a SOAP Envelope: {root.name.clark()}")
        try:
            version = SoapVersion.from_ns(root.name.ns)
        except ValueError as exc:
            raise SoapError(str(exc)) from None
        ns = version.ns

        headers: list[Element] = []
        body_el: Element | None = None
        seen_body = False
        for child in root.element_children():
            if child.name == QName(ns, "Header"):
                if headers or seen_body:
                    raise SoapError("Header must appear once, before Body")
                headers = list(child.element_children())
            elif child.name == QName(ns, "Body"):
                if seen_body:
                    raise SoapError("duplicate Body element")
                seen_body = True
                elems = list(child.element_children())
                if len(elems) > 1:
                    raise SoapError("Body must contain at most one element")
                body_el = elems[0] if elems else None
            else:
                raise SoapError(f"unexpected envelope child {child.name.clark()}")
        if not seen_body:
            raise SoapError("envelope has no Body")
        return cls(body_el, headers=headers, version=version)

    @classmethod
    def from_bytes(cls, data: bytes | str) -> "Envelope":
        return cls.from_element(parse(data))

    @property
    def body_name(self) -> QName | None:
        """Qualified name of the body element (None for an empty Body)."""
        return self.body.name if self.body is not None else None

    # -- fault helpers ---------------------------------------------------
    def is_fault(self) -> bool:
        """True when the body element is a SOAP Fault of this version."""
        return self.body_name == QName(self.version.ns, "Fault")

"""Zero-copy envelope: parsed headers over an unparsed Body slice.

The dispatchers are header processors — they read and rewrite the
WS-Addressing (and tracing) header blocks and forward the Body *verbatim*,
never looking inside it.  :class:`LazyEnvelope` exploits that: the
document is scanned (:func:`~repro.xmlmini.scan.scan_envelope`) rather
than parsed, only the Header region becomes an Element tree, and
:meth:`LazyEnvelope.to_bytes` re-serializes *only* the headers, splicing
them between the untouched preamble and Body byte slices of the original
message.  A 256 KB payload costs the same header work as a 256 B one.

``LazyEnvelope`` mirrors the :class:`~repro.soap.envelope.Envelope`
header API (``headers``, ``find_header``, ``find_headers``,
``remove_headers``, ``copy``, ``is_fault``, ``version``) so
``repro.wsa.rules.rewrite_for_forwarding`` and the tracing helpers work
on either without knowing which they hold.  ``.body`` parses the Body
slice on first access — touching it forfeits the savings for this
message but keeps inspectors and services working unmodified.

Anything the scanner cannot prove safe raises
:class:`~repro.errors.FastPathUnsupported`; :func:`parse_envelope` is the
front door that counts the outcome (``soap_fastpath_total{outcome=…}``)
and falls back to the full parse.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import FastPathUnsupported
from repro.soap.constants import SOAP11_NS, SOAP12_NS, SoapVersion
from repro.soap.envelope import Envelope
from repro.wsa.constants import WSA_NS
from repro.xmlmini import Element, QName, serialize
from repro.xmlmini.parser import parse_fragment
from repro.xmlmini.scan import EnvelopeScan, scan_envelope

#: Header namespaces this stack understands end to end.  A header block
#: carrying ``mustUnderstand`` in any *other* namespace forces the slow
#: path: the full pipeline (not the splicer) must decide whether to fault.
#: "urn:repro:obs" is repro.obs.trace.TRACE_NS, spelled out to keep this
#: leaf module import-light (tests assert the two stay in sync).
KNOWN_HEADER_NAMESPACES = frozenset({WSA_NS, "urn:repro:obs"})

_SOAP_NAMESPACES = (SOAP11_NS, SOAP12_NS)
_MUST_UNDERSTAND_TRUE = ("1", "true")


class _Names(NamedTuple):
    """What this module asks of one SOAP version, built once."""

    version: SoapVersion
    must_understand: QName
    header: QName
    fault: QName


#: envelope namespace -> its version and names (``version._value_`` is the
#: namespace without the Python-level ``Enum`` property call)
_BY_NS = {
    v.ns: _Names(
        v, QName(v.ns, "mustUnderstand"), QName(v.ns, "Header"), QName(v.ns, "Fault")
    )
    for v in SoapVersion
}


class LazyEnvelope:
    """A scanned SOAP message: live header Elements + opaque Body bytes.

    Construct via :meth:`from_bytes` (or :func:`parse_envelope`).  Headers
    are real, mutable :class:`~repro.xmlmini.Element` trees; the Body is a
    byte slice of the original message, parsed only if ``.body`` is read.
    """

    __slots__ = ("version", "headers", "_scan", "_body", "_body_parsed")

    def __init__(
        self,
        scan: EnvelopeScan,
        headers: list[Element],
        version: SoapVersion,
    ) -> None:
        self.version = version
        self.headers = headers
        self._scan = scan
        self._body: Element | None = None
        self._body_parsed = False

    @classmethod
    def from_bytes(cls, data: bytes | bytearray | memoryview | str) -> "LazyEnvelope":
        """Scan ``data`` into a LazyEnvelope.

        Raises :class:`~repro.errors.FastPathUnsupported` when the message
        cannot be proven safe for splice-forwarding (the caller should fall
        back to :meth:`Envelope.from_bytes`, which is the arbiter of
        validity).
        """
        if isinstance(data, str):
            data = data.encode("utf-8")
        try:
            scan = scan_envelope(data)
        except FastPathUnsupported as exc:
            child = getattr(exc, "child_name", None)
            if (
                child is not None
                and child.local in ("Header", "Body")
                and child.ns in _SOAP_NAMESPACES
            ):
                raise FastPathUnsupported(
                    "version_mismatch",
                    f"{child.local} in {child.ns} inside a different-version envelope",
                ) from None
            raise
        if scan.root_name.local != "Envelope" or scan.root_name.ns is None:
            raise FastPathUnsupported(
                "not_envelope", f"root is {scan.root_name.clark()}"
            )
        names = _BY_NS.get(scan.root_name.ns)
        if names is None:
            raise FastPathUnsupported(
                "not_envelope", f"root namespace {scan.root_name.ns!r}"
            )
        if scan.body_children > 1:
            # the slow path rejects multi-child bodies; never splice one
            raise FastPathUnsupported("structure", "Body has multiple children")
        headers = []
        if scan.header is not None:
            for child in scan.header.children:
                if isinstance(child, Element):
                    headers.append(child)
        mu = names.must_understand
        for block in headers:
            value = block.attrs.get(mu) if block.attrs else None
            if (
                value is not None
                and value.strip() in _MUST_UNDERSTAND_TRUE
                and block.name.ns not in KNOWN_HEADER_NAMESPACES
            ):
                raise FastPathUnsupported(
                    "mustunderstand",
                    f"unknown mustUnderstand header {block.name.clark()}",
                )
        return cls(scan, headers, names.version)

    # -- header access (same contract as Envelope) ---------------------------
    def find_header(self, name: QName) -> Element | None:
        """First header block with the given qualified name, or None."""
        local, ns = name.local, name.ns  # compared as strings: no QName.__eq__ call
        for h in self.headers:
            if h.name.local == local and h.name.ns == ns:
                return h
        return None

    def find_headers(self, ns: str) -> list[Element]:
        """All header blocks whose name lives in namespace ``ns``."""
        return [h for h in self.headers if h.name.ns == ns]

    def remove_headers(self, ns: str) -> list[Element]:
        """Remove and return all header blocks in namespace ``ns``."""
        removed = [h for h in self.headers if h.name.ns == ns]
        self.headers = [h for h in self.headers if h.name.ns != ns]
        return removed

    def copy(self, *, without: str | None = None) -> "LazyEnvelope":
        """Independent header copy over the same (immutable) scanned bytes.
        Header blocks in namespace ``without`` are left out instead of
        copied (the caller is about to replace them)."""
        return LazyEnvelope(
            self._scan,
            [h.copy() for h in self.headers if without is None or h.name.ns != without],
            self.version,
        )

    # -- body ----------------------------------------------------------------
    @property
    def body(self) -> Element | None:
        """The Body payload element, parsed from the slice on first access."""
        if not self._body_parsed:
            self._body = self._parse_body()
            self._body_parsed = True
        return self._body

    @property
    def body_name(self) -> QName | None:
        """Qualified name of the body element (None for an empty Body) —
        answered from the scan, without parsing the Body."""
        return self._scan.body_first_child

    @property
    def body_bytes(self) -> memoryview:
        """The whole ``<Body>…</Body>`` region, zero-copy."""
        return self._scan.body_view

    def _parse_body(self) -> Element | None:
        scan = self._scan
        if scan.body_children == 0:
            return None
        body_el = parse_fragment(
            scan.data[scan.body_start : scan.body_end], scan.scope
        )
        elems = list(body_el.element_children())
        return elems[0] if elems else None

    def is_fault(self) -> bool:
        """True when the body element is a SOAP Fault of this version
        (no Body parse: see :attr:`body_name`)."""
        return self._scan.body_first_child == _BY_NS[self.version._value_].fault

    # -- conversions ---------------------------------------------------------
    def materialize(self) -> Envelope:
        """Full DOM form (parses the Body).  The result shares this
        envelope's header/body Elements — treat it as taking ownership."""
        return Envelope(self.body, headers=list(self.headers), version=self.version)

    def to_element(self) -> Element:
        return self.materialize().to_element()

    def to_bytes(self) -> bytes:
        """Wire form by byte splicing.

        Only the (rewritten) headers are serialized; everything else —
        XML declaration, Envelope start tag with all its namespace
        declarations, the whole Body, the Envelope end tag — is the
        original bytes, copied once into the output and never re-encoded.
        """
        scan = self._scan
        if not self.headers:
            if scan.splice_start == scan.tail_start:
                return scan.data  # no headers before, none now: verbatim
            return scan.data[: scan.splice_start] + scan.data[scan.tail_start :]
        header = Element(_BY_NS[self.version._value_].header)
        header.children.extend(self.headers)
        text = serialize(header)
        if scan.scope.get(None) is not None:
            # The spliced fragment sits inside the root's scope, and the
            # root declares a *default* namespace the serializer knows
            # nothing about (it only ever emits prefixed names).  Reset it
            # on the Header so unprefixed names inside stay unnamespaced.
            cut = text.index(" ") if " " in text[: text.index(">")] else text.index(">")
            text = text[:cut] + ' xmlns=""' + text[cut:]
        return b"".join(
            (
                memoryview(scan.data)[: scan.splice_start],
                text.encode("utf-8"),
                memoryview(scan.data)[scan.tail_start :],
            )
        )

    def __repr__(self) -> str:
        body = (
            self._scan.body_first_child.clark()
            if self._scan.body_first_child is not None
            else None
        )
        return (
            f"LazyEnvelope({self.version.name}, headers={len(self.headers)}, "
            f"body={body!r}, body_bytes={self._scan.body_end - self._scan.body_start})"
        )


def parse_envelope(
    data: bytes | bytearray | memoryview | str,
    counter=None,
) -> "LazyEnvelope | Envelope":
    """Parse wire bytes, preferring the zero-copy fast path.

    ``counter`` is a labelled-counter family (``soap_fastpath_total``):
    every call records exactly one outcome — ``fast`` on success, or
    the scanner's bail-out reason (``doctype``, ``encoding``,
    ``malformed``, ``structure``, ``mustunderstand``,
    ``version_mismatch``, ``trailing_content``, ``not_envelope``,
    ``unsupported``) when it falls back.  Invalid documents raise the
    slow path's usual ``XmlError``/``SoapError``.
    """
    try:
        envelope = LazyEnvelope.from_bytes(data)
    except FastPathUnsupported as exc:
        if counter is not None:
            counter.labels(outcome=exc.reason).inc()
    else:
        if counter is not None:
            counter.labels(outcome="fast").inc()
        return envelope
    if isinstance(data, (bytearray, memoryview)):
        data = bytes(data)
    return Envelope.from_bytes(data)


def fastpath_counter(metrics):
    """The ``soap_fastpath_total`` counter family on ``metrics``."""
    return metrics.counter(
        "soap_fastpath_total",
        "zero-copy envelope parses, by outcome (fast / bail-out reason)",
    )

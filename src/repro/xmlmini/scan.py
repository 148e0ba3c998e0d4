"""Byte-offset envelope scanner for the zero-copy SOAP fast path.

:func:`scan_envelope` reads a serialized SOAP document only as far as it
must: the prolog, the root start tag, the Header element (built into
real :class:`~repro.xmlmini.Element` trees by the parser, in the same
pass that finds where it ends), and the *span* of the Body.  The Body's
bytes are never decoded, parsed, or copied — the scan records their
offsets so a rewritten document can later be produced by splicing new
header bytes between the untouched preamble and the untouched Body slice
(:meth:`EnvelopeScan.body_view` exposes the slice as a zero-copy
``memoryview``).

The scan runs on the tokenizer of :mod:`repro.xmlmini.parser`, directly
over the UTF-8 bytes: between markup it hops with ``bytes.find``, and a
tag costs one pattern match, so a large text payload costs one ``find``
call.

The scanner is deliberately conservative.  Anything it cannot prove safe
to splice — DOCTYPE, a declared encoding other than UTF-8, entity
references in namespace declarations, structural surprises, trailing
content after the root — raises
:class:`~repro.errors.FastPathUnsupported`, and the caller falls back to
the full DOM parse, which is the arbiter of validity.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import NoReturn

from repro.errors import FastPathUnsupported, XmlParseError
from repro.xmlmini.names import QName, XML_NS
from repro.xmlmini.node import Element
from repro.xmlmini.parser import (
    ATTRIBUTE,
    BOM,
    CODECS,
    END_TAG,
    NAME,
    START_TAG,
    _Parser,
    declared_encoding,
)

Scope = dict[str | None, str | None]

#: root start tag, byte for byte -> its (name, scope).  A sender writes
#: the same ``<soapenv:Envelope xmlns:…>`` on every message, so its
#: declarations are read once per process.  A refused tag is never kept;
#: the scope handed out is shared, so nothing may mutate it.
_ROOTS: dict[bytes, tuple[QName, Scope]] = {}
_ROOTS_LOCK = threading.Lock()  # taken on a miss only
#: the most root tags kept; past it the dict starts over
ROOTS_MAX = 64
#: a longer root tag is read at every use and never kept
ROOT_MAX_BYTES = 1024


@dataclass
class EnvelopeScan:
    """Result of scanning one serialized envelope; offsets index ``data``."""

    data: bytes
    root_name: QName
    #: namespace bindings in force inside the root element
    scope: Scope
    header: Element | None
    #: where rewritten header bytes are inserted
    splice_start: int
    #: first preserved byte after the original Header (== splice_start
    #: when the document had no Header)
    tail_start: int
    body_start: int
    body_end: int
    #: number of direct element children of Body
    body_children: int
    body_first_child: QName | None

    @property
    def body_view(self) -> memoryview:
        """The Body element's bytes as a zero-copy view of ``data``."""
        return memoryview(self.data)[self.body_start : self.body_end]


def _bail(reason: str, detail: str = "") -> NoReturn:
    raise FastPathUnsupported(reason, detail)


def _skip_misc(parser: _Parser, pos: int) -> int:
    """Skip whitespace, comments, and processing instructions.

    Stops at anything else; ``<!`` that is neither a comment nor CDATA
    is a markup declaration (DOCTYPE) and bails.
    """
    data = parser.data
    if data.startswith(b"<", pos) and data[pos + 1 : pos + 2] not in b"!?":
        return pos  # a tag: nothing to skip, as between most envelope parts
    pos = parser.skip_misc(pos)
    if data.startswith(b"<!", pos) and not data.startswith(b"<![", pos):
        _bail("doctype", "markup declaration")
    return pos


def _start_tag(parser: _Parser, pos: int) -> re.Match[bytes]:
    tag = START_TAG(parser.data, pos)
    if tag is None:
        raise parser.start_tag_error(pos)
    return tag


def _resolve(
    parser: _Parser, tag: re.Match[bytes], scope: Scope
) -> tuple[QName, Scope]:
    """The qualified name of start tag ``tag`` and the namespace scope
    inside it.  Only its xmlns declarations are kept; its ordinary
    attributes are put through the parser's own routine and dropped — the
    Envelope and Body start tags are spliced through verbatim, so what the
    DOM parser would refuse in them (an undeclared prefix, a duplicate)
    must be refused here."""
    attrs = tag.group(2)
    if attrs:
        if b"&" in attrs and any(
            name.startswith(b"xmlns") and b"&" in value
            for name, value in ATTRIBUTE.findall(attrs)
        ):
            # would be expanded here but spliced through verbatim
            _bail("unsupported", "entity reference in namespace declaration")
        decls, others = parser.attributes(tag)
        if decls:
            scope = {**scope, **decls}
        if others:
            parser.ordinary_attributes(others, scope, tag)
    return parser.expand(tag.group(1), scope, tag), scope


def _content_span(
    data: bytes, pos: int
) -> tuple[int, int, re.Match[bytes] | None]:
    """Depth-scan from just inside an element to just past its end tag.

    Returns ``(end_offset, direct_children, first_child_start_tag)``.  End
    tag *names* are not matched against start tags — balance alone
    decides — so a misnested document may scan; the slow-path parser
    still rejects it wherever the content is actually parsed.
    """
    find = data.find
    depth = 1
    children = 0
    first_child: re.Match[bytes] | None = None
    while True:
        lt = find(b"<", pos)
        if lt < 0:
            _bail("malformed", "unterminated element")
        kind = data[lt + 1 : lt + 2]
        if kind == b"/":
            end = find(b">", lt + 2)
            if end < 0:
                _bail("malformed", "unterminated end tag")
            pos = end + 1
            depth -= 1
            if depth == 0:
                return pos, children, first_child
        elif kind == b"!":
            if data.startswith(b"<!--", lt):
                end = find(b"-->", lt + 4)
            elif data.startswith(b"<![CDATA[", lt):
                end = find(b"]]>", lt + 9)
            else:
                _bail("doctype", "markup declaration inside element")
            if end < 0:
                _bail("malformed", "unterminated comment or CDATA section")
            pos = end + 3
        elif kind == b"?":
            end = find(b"?>", lt + 2)
            if end < 0:
                _bail("malformed", "unterminated processing instruction")
            pos = end + 2
        else:
            tag = START_TAG(data, lt)
            if tag is None:
                _bail("malformed", f"bad start tag at offset {lt}")
            if depth == 1:
                children += 1
                if first_child is None:
                    first_child = tag
            if not tag.group(3):
                depth += 1
            pos = tag.end()


def scan_envelope(data: bytes | bytearray | memoryview) -> EnvelopeScan:
    """Scan a serialized SOAP envelope, parsing only its Header.

    Raises :class:`~repro.errors.FastPathUnsupported` whenever the document
    cannot be *proven* safe for byte-splice rewriting; that is not a verdict
    of invalidity — the caller falls back to the full parse, which decides.
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    try:
        return _scan(data)
    except XmlParseError as exc:
        _bail("malformed", str(exc))
    except UnicodeDecodeError as exc:
        _bail("encoding", f"scanned markup is not valid UTF-8: {exc}")


def _scan(data: bytes) -> EnvelopeScan:
    parser = _Parser(data)
    label = declared_encoding(data)
    if label is not None and CODECS.get(label) != "utf-8":
        _bail("encoding", f"declared encoding {label!r}")
    pos = _skip_misc(parser, len(BOM) if data.startswith(BOM) else 0)
    if not data.startswith(b"<", pos):
        _bail("malformed", "expected the document element")
    root = _start_tag(parser, pos)
    if root.group(3):
        _bail("structure", "document element is empty")
    raw = root.group()
    known = _ROOTS.get(raw)
    if known is None:
        known = _resolve(parser, root, {None: None, "xml": XML_NS})
        if len(raw) <= ROOT_MAX_BYTES:
            with _ROOTS_LOCK:
                if len(_ROOTS) >= ROOTS_MAX:
                    _ROOTS.clear()
                _ROOTS[raw] = known
    root_name, scope = known
    if root_name.local != "Envelope":
        _bail("not_envelope", f"document element is {root_name.clark()}")

    header_el: Element | None = None
    splice_start = -1
    tail_start = -1
    body_children = 0
    body_first_child: QName | None = None

    pos = root.end()
    while True:
        pos = _skip_misc(parser, pos)
        if pos >= parser.n:
            _bail("malformed", "unterminated envelope")
        if data.startswith(b"<![", pos):
            _bail("structure", "CDATA section between envelope children")
        if data.startswith(b"</", pos):
            _bail("structure", "envelope has no Body")
        if not data.startswith(b"<", pos):
            _bail("structure", "text content between envelope children")
        tag = _start_tag(parser, pos)
        child_name, child_scope = _resolve(parser, tag, scope)
        if child_name.local == "Header" and child_name.ns == root_name.ns:
            if header_el is not None:
                _bail("structure", "duplicate Header")
            splice_start = pos
            header_el, pos = parser.parse_element(pos, scope)
            tail_start = pos
            continue
        if child_name.local == "Body" and child_name.ns == root_name.ns:
            body_start = pos
            body_end = tag.end()
            if not tag.group(3):
                body_end, body_children, first = _content_span(data, body_end)
                if first is not None:
                    body_first_child = _resolve(parser, first, child_scope)[0]
            break
        exc = FastPathUnsupported(
            "structure", f"unexpected envelope child {child_name.clark()}"
        )
        exc.child_name = child_name  # lets the SOAP layer spot 1.1/1.2 mixes
        raise exc

    # the root end tag, then at most trailing comments/PIs/whitespace
    pos = _skip_misc(parser, body_end)
    if not data.startswith(b"</", pos):
        _bail("trailing_content", "content after Body")
    end = END_TAG(data, pos)
    if end is None or end.group(1) != root.group(1):
        name = NAME(data, pos + 2)
        if name is None or name.group() != root.group(1):
            _bail("structure", "mismatched document end tag")
        _bail("malformed", "malformed document end tag")
    if _skip_misc(parser, end.end()) != parser.n:
        _bail("trailing_content", "content after the document element")

    # comments and PIs around the Body were skipped, not read; the DOM
    # parser refuses the document if they are not UTF-8, so does the splice
    for skipped in (data[:body_start], data[body_end:]):
        if not skipped.isascii():
            skipped.decode("utf-8")
    if splice_start < 0:
        splice_start = tail_start = body_start
    return EnvelopeScan(
        data=data,
        root_name=root_name,
        scope=scope,
        header=header_el,
        splice_start=splice_start,
        tail_start=tail_start,
        body_start=body_start,
        body_end=body_end,
        body_children=body_children,
        body_first_child=body_first_child,
    )

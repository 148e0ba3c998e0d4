"""XML tokenizer and recursive-descent parser for the mini infoset.

Supports the subset SOAP documents use: the XML declaration, elements,
attributes, namespace declarations (default and prefixed), character data
with the five predefined entities plus numeric character references,
comments, CDATA sections, and processing instructions (skipped).  DOCTYPE
is rejected outright — there is no reason for a SOAP endpoint to accept
DTDs, and rejecting them closes the classic entity-expansion attacks.

The tokenizer works on the document's UTF-8 bytes — every markup
delimiter is ASCII, so a multi-byte sequence can never alias one — and
moves from delimiter to delimiter with ``bytes.find`` and the compiled
patterns below, never character by character: a text run of any length
costs one ``find``, a start tag with all its attributes one ``match``.
The envelope scanner (:mod:`repro.xmlmini.scan`) runs on the same tokens.
Parsing is O(n) in the document size and allocates only the resulting
tree.
"""

from __future__ import annotations

import re
import threading

from repro.errors import XmlError, XmlParseError
from repro.xmlmini.names import XML_NS, XMLNS_NS, QName, is_ncname, split_name
from repro.xmlmini.node import Element

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}
BOM = b"\xef\xbb\xbf"
_new = object.__new__

# -- names --------------------------------------------------------------------
#: raw name -> the (prefix, local) parts names.split_name accepted for it.
#: Whether a spelling is a valid name never changes, so each one is checked
#: once per process; what its prefix means is looked up on every use.
_SPELLINGS: dict[bytes, tuple[str | None, str]] = {}
_SPELLINGS_LOCK = threading.Lock()  # taken on a miss only
#: the most spellings kept; past it the dict starts over, so a stream of
#: unique names costs a check each and no memory
SPELLINGS_MAX = 1024
#: a longer name is checked at every use and never kept
SPELLING_MAX_BYTES = 64


def _remember(raw: bytes, parts: tuple[str | None, str]) -> None:
    if len(raw) <= SPELLING_MAX_BYTES:
        with _SPELLINGS_LOCK:
            if len(_SPELLINGS) >= SPELLINGS_MAX:
                _SPELLINGS.clear()
            _SPELLINGS[raw] = parts


# -- tokens -------------------------------------------------------------------
# A raw name runs to the next delimiter; what it may contain is decided
# when it is expanded (names.split_name), not here.
_S = rb"[ \t\r\n]"
_NAME = rb"[^ \t\r\n=/>\"'<]+"
_VALUE = rb"(?:\"[^\"<]*\"|'[^'<]*')"
# whitespace, name, "=", quoted value; the two %s open the name and value groups
_ATTR = rb"%s+%%s%s)%s*=%s*%%s%s)" % (_S, _NAME, _S, _S, _VALUE)

#: skips a whitespace run (always matches)
WHITESPACE = re.compile(rb"%s*" % _S).match
NAME = re.compile(_NAME).match
#: a whole start tag: (raw name, attribute run, "/" when self-closing)
START_TAG = re.compile(
    rb"<(%s)((?:%s)*)%s*(/?)>" % (_NAME, _ATTR % (b"(?:", b"(?:"), _S)
).match
#: one attribute of a start tag's attribute run: (raw name, quoted value)
ATTRIBUTE = re.compile(_ATTR % (b"(", b"("))
END_TAG = re.compile(rb"</(%s)%s*>" % (_NAME, _S)).match
_XML_DECL = re.compile(rb"<\?xml(?=[ \t\r\n?])").match
_ENCODING = re.compile(rb"encoding%s*=%s*(\"[^\"]*\"|'[^']*')" % (_S, _S)).search

#: declared encoding label → codec; everything else is refused by name
CODECS = {
    "utf-8": "utf-8",
    "utf8": "utf-8",
    "us-ascii": "ascii",
    "ascii": "ascii",
    "iso-8859-1": "latin-1",
    "iso8859-1": "latin-1",
    "iso_8859-1": "latin-1",
    "latin-1": "latin-1",
    "latin1": "latin-1",
    "l1": "latin-1",
}


def declared_encoding(data: bytes) -> str | None:
    """The encoding label of ``data``'s XML declaration, lower-cased, or
    None when the document has no declaration or the declaration names no
    encoding."""
    pos = len(BOM) if data.startswith(BOM) else 0
    if _XML_DECL(data, pos) is None:
        return None
    end = data.find(b"?>", pos)
    found = _ENCODING(data, pos, end) if end >= 0 else None
    if found is None:
        return None
    return found.group(1)[1:-1].decode("latin-1").lower()


def _utf8(document: str | bytes) -> bytes:
    """``document`` as valid UTF-8 bytes, honouring a declared encoding."""
    if isinstance(document, str):
        try:
            return document.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise XmlParseError(f"document is not valid Unicode: {exc}") from None
    label = declared_encoding(document)
    if label is None:
        label = "utf-8"
    codec = CODECS.get(label)
    if codec is None:
        raise XmlParseError(f"unsupported document encoding {label!r}")
    if document.isascii():
        return document  # ASCII reads the same in every encoding of the list
    try:
        text = document.decode(codec)
    except UnicodeDecodeError as exc:
        raise XmlParseError(f"document is not valid {label.upper()}: {exc}") from None
    return document if codec == "utf-8" else text.encode("utf-8")


def parse(document: str | bytes) -> Element:
    """Parse an XML document and return the root element.

    Bytes are read in the encoding their XML declaration names (UTF-8,
    US-ASCII or ISO-8859-1 and their aliases; UTF-8 when it names none).
    Raises :class:`~repro.errors.XmlParseError` on malformed input, with
    ``pos`` an offset into the document's UTF-8 form.
    """
    return _Parser(_utf8(document)).parse_document()


def parse_fragment(
    text: str | bytes, ns_scope: dict[str | None, str | None] | None = None
) -> Element:
    """Parse a single element cut out of a larger document.

    ``ns_scope`` supplies the namespace bindings in force at the point the
    fragment was cut (prefix → URI, ``None`` key = default namespace), so
    prefixes declared on ancestors of the fragment still resolve.  Bytes
    are the UTF-8 slice itself: the zero-copy envelope parses the
    ``<soap:Body>`` region of a message this way, on demand.  Raises :class:`~repro.errors.XmlParseError` on malformed
    input or trailing content after the element.
    """
    parser = _Parser(_utf8(text))
    scope: dict[str | None, str | None] = {None: None, "xml": XML_NS}
    if ns_scope:
        scope.update(ns_scope)
    pos = WHITESPACE(parser.data, 0).end()
    if not parser.data.startswith(b"<", pos):
        raise parser.fail("expected an element", pos)
    el, pos = parser.parse_element(pos, scope)
    pos = WHITESPACE(parser.data, pos).end()
    if pos != parser.n:
        raise parser.fail("content after fragment element", pos)
    return el


class _Parser:
    """Tree builder over UTF-8 bytes.

    ``parse``/``parse_fragment`` hand over validated bytes.  The scanner
    hands over the wire bytes as they came, so a name, value or text run
    that is not UTF-8 surfaces there as ``UnicodeDecodeError``.
    """

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.n = len(data)

    def fail(self, message: str, pos: int) -> XmlParseError:
        line = self.data.count(b"\n", 0, pos) + 1
        return XmlParseError(message, pos=pos, line=line)

    # -- document ------------------------------------------------------------
    def parse_document(self) -> Element:
        data = self.data
        # to the tree builder the XML declaration is one more PI
        pos = self.skip_misc(len(BOM) if data.startswith(BOM) else 0)
        if data.startswith(b"<!DOCTYPE", pos):
            raise self.fail("DOCTYPE is not allowed", pos)
        if not data.startswith(b"<", pos):
            raise self.fail("expected root element", pos)
        root, pos = self.parse_element(pos, {None: None, "xml": XML_NS})
        pos = self.skip_misc(pos)
        if pos != self.n:
            raise self.fail("content after document element", pos)
        return root

    def skip_misc(self, pos: int) -> int:
        """Skip whitespace, comments and processing instructions."""
        data = self.data
        while True:
            pos = WHITESPACE(data, pos).end()
            if data.startswith(b"<!--", pos):
                pos = self._skip_comment(pos)
            elif data.startswith(b"<?", pos):
                pos = self._skip_pi(pos)
            else:
                return pos

    def _skip_comment(self, pos: int) -> int:
        end = self.data.find(b"-->", pos + 4)
        if end < 0:
            raise self.fail("unterminated comment", pos + 4)
        if self.data.find(b"--", pos + 4, end) >= 0:
            raise self.fail("'--' not allowed inside comment", end + 3)
        return end + 3

    def _skip_pi(self, pos: int) -> int:
        end = self.data.find(b"?>", pos + 2)
        if end < 0:
            raise self.fail("unterminated processing instruction", pos + 2)
        return end + 2

    # -- elements -----------------------------------------------------------
    def parse_element(
        self, pos: int, ns_scope: dict[str | None, str | None]
    ) -> tuple[Element, int]:
        """Parse the element whose ``<`` is at ``pos``; return it and the
        offset just past it.  ``ns_scope`` maps prefix (None = default) to
        namespace URI (None = no namespace)."""
        data = self.data
        tag = START_TAG(data, pos)
        if tag is None:
            raise self.start_tag_error(pos)
        raw_name, attrs, empty = tag.groups()
        scope = ns_scope
        others = None
        if attrs:
            decls, others = self.attributes(tag)
            if decls:
                scope = {**ns_scope, **decls}
        # the name is checked by expand(): skip Element's constructor
        el = _new(Element)
        el.name = self.expand(raw_name, scope, tag)
        el.attrs = self.ordinary_attributes(others, scope, tag) if others else {}
        el.children = children = []
        pos = tag.end()
        if empty:
            return el, pos

        find = data.find
        buf: list[str] = []  # text runs, across comments, PIs and CDATA
        while True:
            lt = find(b"<", pos)
            run = data[pos:lt] if lt >= 0 else data[pos:]
            if run:
                buf.append(self.unescape(run, pos) if b"&" in run else run.decode())
            if lt < 0:
                raise self.fail(f"unterminated element <{el.name.local}>", self.n)
            kind = data[lt + 1 : lt + 2]
            if kind == b"/":
                end = END_TAG(data, lt)
                if end is None or end.group(1) != raw_name:
                    raise self._end_tag_error(lt, raw_name)
                if buf:
                    children.append("".join(buf))
                return el, end.end()
            if kind == b"?":
                pos = self._skip_pi(lt)
                continue
            if kind == b"!":
                if data.startswith(b"<!--", lt):
                    pos = self._skip_comment(lt)
                    continue
                if data.startswith(b"<![CDATA[", lt):
                    end = find(b"]]>", lt + 9)
                    if end < 0:
                        raise self.fail("unterminated CDATA section", lt + 9)
                    buf.append(data[lt + 9 : end].decode())
                    pos = end + 3
                    continue
            if buf:
                children.append("".join(buf))
                buf = []
            child, pos = self.parse_element(lt, scope)
            children.append(child)

    def attributes(
        self, tag: re.Match[bytes]
    ) -> tuple[dict[str | None, str | None], list[tuple[bytes, str]]]:
        """The attributes of start tag ``tag``, references expanded: its
        namespace declarations (prefix → URI), and the others by raw name."""
        decls: dict[str | None, str | None] = {}
        others: list[tuple[bytes, str]] = []
        at = tag.start(3)
        for attr in ATTRIBUTE.finditer(self.data, tag.start(2), tag.end(2)):
            name, quoted = attr.groups()
            raw = quoted[1:-1]
            value = self.unescape(raw, attr.start(2) + 1) if b"&" in raw else raw.decode()
            if name == b"xmlns":
                decls[None] = value or None
            elif name.startswith(b"xmlns:"):
                parts = _SPELLINGS.get(name)
                if parts is None:
                    prefix = name[6:].decode()
                    if not is_ncname(prefix):
                        raise self.fail(f"bad namespace prefix {prefix!r}", at)
                    _remember(name, ("xmlns", prefix))  # as split_name splits it
                else:
                    prefix = parts[1]
                if not value:
                    raise self.fail("prefixed namespace cannot be undeclared", at)
                decls[prefix] = value
            else:
                others.append((name, value))
        return decls, others

    def ordinary_attributes(
        self,
        others: list[tuple[bytes, str]],
        scope: dict[str | None, str | None],
        tag: re.Match[bytes],
    ) -> dict[QName, str]:
        """The non-xmlns attributes of start tag ``tag`` (``others`` as
        :meth:`attributes` gives them) by qualified name, in the scope
        inside the tag; a malformed name, an undeclared prefix and a
        duplicate are errors."""
        attrs: dict[QName, str] = {}
        for aname, avalue in others:
            q = self.expand(aname, scope, tag, is_attr=True)
            if q in attrs:
                raise self.fail(
                    f"duplicate attribute {aname.decode()!r}", tag.start(3)
                )
            attrs[q] = avalue
        return attrs

    def expand(
        self,
        raw: bytes,
        scope: dict[str | None, str | None],
        tag: re.Match[bytes],
        is_attr: bool = False,
    ) -> QName:
        """The qualified name of ``raw``, a name of start tag ``tag``: its
        spelling is checked once per process, its prefix looked up in
        ``scope`` (prefix → URI, None = default) at every call."""
        parts = _SPELLINGS.get(raw)
        if parts is None:
            try:
                parts = split_name(raw.decode())
            except XmlError as exc:
                raise self.fail(str(exc), tag.start(3)) from None
            _remember(raw, parts)
        prefix, local = parts
        if prefix is None:
            # Unprefixed attributes are in no namespace (XML NS rec);
            # unprefixed elements take the default namespace.
            ns = None if is_attr else scope.get(None)
        elif prefix == "xml":
            ns = XML_NS
        elif prefix == "xmlns":
            ns = XMLNS_NS
        else:
            ns = scope.get(prefix)
            if ns is None:
                raise self.fail(f"undeclared namespace prefix {prefix!r}", tag.start(3))
        if ns == "":  # only a caller's parse_fragment scope can hold one
            raise self.fail("namespace URI must be None or non-empty", tag.start(3))
        # both parts are checked: skip QName's constructor
        q = _new(QName)
        q.ns = ns
        q.local = local
        return q

    # -- character data --------------------------------------------------------
    def unescape(self, raw: bytes, at: int) -> str:
        """The text of ``raw`` (text or attribute value, found at offset
        ``at``) with its entity and character references expanded."""
        head, *rest = raw.split(b"&")
        out = [head.decode()]
        at += len(head) + 1
        for part in rest:
            body, semicolon, tail = part.partition(b";")
            if not semicolon:
                raise self.fail("unterminated entity reference", at)
            at += len(body) + 1
            try:
                out.append(_reference(body.decode()))
            except XmlError as exc:
                raise self.fail(str(exc), at) from None
            out.append(tail.decode())
            at += len(tail) + 1
        return "".join(out)

    # -- what was wrong with a tag the patterns refused ---------------------------
    def start_tag_error(self, pos: int) -> XmlParseError:
        """Why START_TAG does not match at ``pos``, found token by token."""
        data = self.data
        name = NAME(data, pos + 1)
        if name is None:
            return self.fail("expected a name", pos + 1)
        pos = name.end()
        while True:
            after_ws = WHITESPACE(data, pos).end()
            if data.startswith(b"/", after_ws):
                return self.fail("expected '/>'", after_ws)
            if after_ws == pos:
                return self.fail("expected whitespace before attribute", pos)
            name = NAME(data, after_ws)
            if name is None:
                return self.fail("expected a name", after_ws)
            pos = WHITESPACE(data, name.end()).end()
            if not data.startswith(b"=", pos):
                return self.fail("expected '='", pos)
            pos = WHITESPACE(data, pos + 1).end()
            quote = data[pos : pos + 1]
            if quote not in (b'"', b"'"):
                return self.fail("attribute value must be quoted", pos)
            close = data.find(quote, pos + 1)
            lt = data.find(b"<", pos + 1, close if close >= 0 else self.n)
            if lt >= 0:
                return self.fail("'<' not allowed in attribute value", lt)
            if close < 0:
                return self.fail("unterminated attribute value", self.n)
            self.unescape(data[pos + 1 : close], pos + 1)  # a bad reference comes first
            pos = close + 1

    def _end_tag_error(self, pos: int, raw_name: bytes) -> XmlParseError:
        name = NAME(self.data, pos + 2)
        if name is None:
            return self.fail("expected a name", pos + 2)
        if name.group() != raw_name:
            return self.fail(
                f"mismatched end tag: expected </{raw_name.decode()}>, "
                f"got </{name.group().decode()}>",
                name.end(),
            )
        return self.fail("expected '>'", WHITESPACE(self.data, name.end()).end())


def _reference(body: str) -> str:
    """The character that ``&body;`` stands for."""
    if body.startswith(("#x", "#X")):
        digits, base = body[2:], 16
    elif body.startswith("#"):
        digits, base = body[1:], 10
    else:
        if body not in _ENTITIES:
            raise XmlError(f"unknown entity &{body};")
        return _ENTITIES[body]
    try:
        code = int(digits, base)
    except ValueError:
        raise XmlError(f"bad character reference &{body};") from None
    if not (0 < code <= 0x10FFFF) or 0xD800 <= code <= 0xDFFF:
        raise XmlError(f"character reference &{body}; out of range")
    return chr(code)

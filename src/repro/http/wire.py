"""Incremental (sans-io) HTTP/1.1 parser and serializer.

The parsers are push-style state machines: feed bytes with
:meth:`~MessageParser.feed`, poll :meth:`~MessageParser.next_message`.
They never touch sockets, so the threaded runtime and the discrete-event
simulator share them byte-for-byte.  Supported framing: Content-Length,
chunked transfer coding, and (responses only) read-until-close.

Limits: header block ≤ :data:`MAX_HEADER_BYTES`, body ≤ ``max_body``
(default 16 MiB); exceeding either raises :class:`HttpParseError` — a
forwarding intermediary must bound memory per connection.
"""

from __future__ import annotations

from repro.errors import HttpParseError
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.status import reason_phrase

MAX_HEADER_BYTES = 32 * 1024
DEFAULT_MAX_BODY = 16 * 1024 * 1024

_CRLF = b"\r\n"
#: statuses whose response ends at its head (RFC 7230 3.3.3 rule 1)
_NO_BODY = frozenset((204, 304, *range(100, 200)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _wire(start: str, headers: Headers, framing: str, body: bytes) -> bytes:
    out = [start]
    for name, value in headers._items:
        out.append(f"{name}: {value}\r\n")
    out.append(framing)
    return "".join(out).encode("latin-1") + body


def serialize_request(req: HttpRequest) -> bytes:
    """Wire bytes for a request; adds Content-Length if no framing given."""
    index, body, framing = req.headers._index, req.body, "\r\n"
    if "content-length" not in index:
        if body and "transfer-encoding" not in index:
            framing = f"Content-Length: {len(body)}\r\n\r\n"
        elif not body and req.method in ("POST", "PUT"):
            framing = "Content-Length: 0\r\n\r\n"
    start = f"{req.method} {req.target} {req.version}\r\n"
    return _wire(start, req.headers, framing, body)


def serialize_request_burst(requests) -> bytes:
    """Wire bytes for several requests back-to-back (HTTP/1.1 pipelining):
    what a WsThread writes in one send on a leased connection."""
    return b"".join(map(serialize_request, requests))


def serialize_response(resp: HttpResponse) -> bytes:
    """Wire bytes for a response; always emits explicit Content-Length."""
    index, framing = resp.headers._index, "\r\n"
    if "content-length" not in index and "transfer-encoding" not in index:
        framing = f"Content-Length: {len(resp.body)}\r\n\r\n"
    reason = resp.reason if resp.reason is not None else reason_phrase(resp.status)
    start = f"{resp.version} {resp.status} {reason}\r\n"
    return _wire(start, resp.headers, framing, resp.body)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _start_line(line: str) -> list[str]:
    start = line.split(" ", 2)
    if len(start) < 3:
        raise HttpParseError(f"malformed start line {line!r}")
    return start


def _fields(lines: list[str], size: int) -> tuple[Headers, int]:
    """The checked header fields ``lines``, and ``size`` (the head's header
    bytes before them) with theirs added."""
    headers = object.__new__(Headers)  # no constructor: the loop checks each field
    headers._items = items = []
    headers._index = index = {}
    for line in lines:
        size += len(line)
        if size > MAX_HEADER_BYTES:
            raise HttpParseError("header block exceeds limit")
        name, sep, value = line.partition(":")
        value = value.strip()
        # a printable name without a space passes every check made of it
        odd = not (sep and name and name.isprintable()) or " " in name
        if odd or "\r" in value or "\n" in value:
            # the line may still pass: the checks in order say if and why not
            if line[:1] in (" ", "\t"):
                raise HttpParseError("obsolete header folding not supported")
            if not sep or not name or name != name.strip():
                raise HttpParseError(f"malformed header line {line.encode('latin-1')!r}")
            Headers._check(name, value)
        items.append((name, value))
        index.setdefault(name.lower(), []).append(value)
    return headers, size


class MessageParser:
    """Shared incremental parser machinery for requests and responses."""

    #: subclass hook: True for responses (enables read-until-close framing)
    is_response = False

    def __init__(self, max_body: int = DEFAULT_MAX_BODY) -> None:
        # Receive buffer with a consumed-bytes offset: consuming a head or
        # a body slice advances _pos instead of deleting the buffer head
        # (`del buf[:n]` shifts the whole tail — O(n) per message turns a
        # large pipelined burst into quadratic work).
        self._buf = bytearray()
        self._pos = 0
        self._max_body = max_body
        self._state = "head"
        self._eof = False
        # a head still arriving: its whole lines checked so far, in bytes past
        # _pos and in header bytes (the block limit counts the whole head)
        self._checked = 0
        self._head_bytes = 0
        # per-message scratch
        self._start: list[str] | None = None
        self._headers: Headers | None = None
        self._body = bytearray()
        self._remaining = 0
        self._chunk_trailer = False
        self._ready: list[object] = []
        #: set per-message by the server loop for HEAD / 204 handling
        self.expect_no_body = False

    # -- public API -----------------------------------------------------
    def feed(self, data: bytes) -> None:
        """Feed wire bytes; raises HttpParseError on protocol violations."""
        if self._eof:
            raise HttpParseError("feed after EOF")
        self._buf.extend(data)
        self._advance()
        # trim the consumed prefix once it is large and most of the buffer:
        # one O(n) shift per O(n) consumed bytes, amortized constant time
        if self._pos > 4096 and self._pos * 2 > len(self._buf):
            del self._buf[: self._pos]
            self._pos = 0

    def feed_eof(self) -> None:
        """Signal connection close; may complete a read-until-close body."""
        self._eof = True
        self._advance()
        if self._state == "body-until-close":
            self._finish_message(bytes(self._body))
        elif self._state != "head" or self._pos < len(self._buf):
            raise HttpParseError("connection closed mid-message")

    def next_message(self):
        """Pop one completed message, or None."""
        return self._ready.pop(0) if self._ready else None

    @property
    def idle(self) -> bool:
        """True when no partial message is buffered (safe keep-alive point)."""
        return self._state == "head" and self._pos >= len(self._buf) and not self._ready

    # -- state machine -----------------------------------------------------
    def _advance(self) -> None:
        buf = self._buf
        progress = True
        while progress and self._pos < len(buf):  # no state moves on nothing
            state = self._state
            if state == "head":
                progress = self._parse_head()
            elif state == "body-length":
                progress = self._parse_body_length()
            elif state == "chunk-size":
                progress = self._parse_chunk_size()
            elif state == "chunk-data":
                progress = self._parse_chunk_data()
            else:  # "body-until-close"
                progress = self._parse_until_close()

    def _parse_head(self) -> bool:
        """Start line, fields and framing of the next message in one pass,
        once its head is whole; until then each line is checked as it
        completes, so a malformed one fails the feed that finishes it."""
        buf = self._buf
        pos = self._pos
        while buf.startswith(_CRLF, pos):
            pos += 2  # tolerate leading blank lines (robustness, RFC 7230 3.5)
        self._pos = pos
        end = buf.find(b"\r\n\r\n", pos)
        if end < 0:
            at = pos + self._checked
            last = buf.rfind(_CRLF, at)
            if last >= 0:
                lines = buf[at:last].decode("latin-1").split("\r\n")
                if not self._checked:
                    _start_line(lines.pop(0))
                self._head_bytes = _fields(lines, self._head_bytes)[1]
                at = last + 2
                self._checked = at - pos
            if len(buf) - at > MAX_HEADER_BYTES:
                raise HttpParseError("header line exceeds limit")
            return False
        lines = buf[pos:end].decode("latin-1").split("\r\n")
        self._pos = pos = end + 4
        self._checked = self._head_bytes = 0
        self._start = start = _start_line(lines[0])
        self._headers, _ = _fields(lines[1:], 0)
        index = self._headers._index

        te, cl = index.get("transfer-encoding"), index.get("content-length")
        if self.expect_no_body:
            te = cl = None  # the message ends at its head
        elif self.is_response:
            try:
                status = int(start[1])
            except ValueError:
                status = None  # refused below, or when the message is built
            # A 204 or 304 with a Content-Length is the exception kept:
            # serialize_response writes the body it is given, and this
            # parser reads it back.
            if status in _NO_BODY and (status < 200 or cl is None):
                te = cl = None
            elif te is None and cl is None:
                if status is None:
                    raise HttpParseError(f"bad status code {start[1]!r}")
                self._state = "body-until-close"
                return True
        body = b""  # also what a request without framing fields has
        if te is not None:
            if te[0].strip().lower() != "chunked":
                raise HttpParseError(f"unsupported Transfer-Encoding {te[0]!r}")
            if cl is not None:
                raise HttpParseError("both Content-Length and Transfer-Encoding")
            self._state = "chunk-size"
            return True
        elif cl is not None:
            if len(cl) > 1 and len(set(cl)) != 1:
                raise HttpParseError("conflicting Content-Length values")
            try:
                length = int(cl[0])
            except ValueError:
                raise HttpParseError(f"bad Content-Length {cl[0]!r}") from None
            if length < 0:
                raise HttpParseError("negative Content-Length")
            if length > self._max_body:
                raise HttpParseError("declared body exceeds limit")
            if len(buf) - pos < length:
                self._remaining = length
                self._state = "body-length"
                return True
            self._pos = pos + length  # the whole body is here: cut it once
            body = bytes(memoryview(buf)[pos : pos + length])
        self._ready.append(self._build(start, self._headers, body))
        self.expect_no_body = False
        return True

    def _parse_body_length(self) -> bool:
        take = min(self._remaining, len(self._buf) - self._pos)
        self._body.extend(self._buf[self._pos : self._pos + take])
        self._pos += take
        self._remaining -= take
        if self._remaining == 0:
            self._finish_message(bytes(self._body))
            return True
        return False

    def _parse_chunk_size(self) -> bool:
        eol = self._buf.find(_CRLF, self._pos)
        if eol < 0:
            if len(self._buf) - self._pos > MAX_HEADER_BYTES:
                raise HttpParseError("header line exceeds limit")
            return False
        line = bytes(self._buf[self._pos : eol])
        self._pos = eol + 2
        if self._chunk_trailer:
            # trailers: skip lines until the blank terminator
            if line:
                return True
            self._chunk_trailer = False
            self._finish_message(bytes(self._body))
            return True
        size_text = line.split(b";", 1)[0].strip()
        try:
            size = int(size_text, 16)
        except ValueError:
            raise HttpParseError(f"bad chunk size {size_text!r}") from None
        if size < 0:
            raise HttpParseError("negative chunk size")
        if len(self._body) + size > self._max_body:
            raise HttpParseError("chunked body exceeds limit")
        if size == 0:
            self._chunk_trailer = True
            return True
        self._remaining = size
        self._state = "chunk-data"
        return True

    def _parse_chunk_data(self) -> bool:
        needed = self._remaining + 2  # data + CRLF
        if len(self._buf) - self._pos < needed:
            return False
        data_end = self._pos + self._remaining
        self._body.extend(self._buf[self._pos : data_end])
        if self._buf[data_end : data_end + 2] != _CRLF:
            raise HttpParseError("chunk data not followed by CRLF")
        self._pos += needed
        self._remaining = 0
        self._state = "chunk-size"
        return True

    def _parse_until_close(self) -> bool:
        if len(self._body) + len(self._buf) - self._pos > self._max_body:
            raise HttpParseError("body exceeds limit")
        self._body.extend(self._buf[self._pos :])
        self._buf.clear()
        self._pos = 0
        return False

    def _finish_message(self, body: bytes) -> None:
        self._ready.append(self._build(self._start, self._headers, body))
        if self._body:
            self._body = bytearray()
        self._state = "head"
        self.expect_no_body = False

    def _build(self, start: list[str], headers: Headers, body: bytes):
        raise NotImplementedError


class RequestParser(MessageParser):
    """Incremental parser yielding :class:`HttpRequest` objects."""

    def _build(self, start, headers, body):
        method, target, version = start
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            raise HttpParseError(f"unsupported version {version!r}")
        if not method.isupper():
            raise HttpParseError(f"invalid method {method!r}")
        return HttpRequest(
            method=method, target=target, headers=headers, body=body, version=version
        )


class ResponseParser(MessageParser):
    """Incremental parser yielding :class:`HttpResponse` objects."""

    is_response = True

    def _build(self, start, headers, body):
        version, status_text, reason = start
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            raise HttpParseError(f"unsupported version {version!r}")
        try:
            status = int(status_text)
        except ValueError:
            raise HttpParseError(f"bad status code {status_text!r}") from None
        return HttpResponse(
            status=status, headers=headers, body=body, version=version, reason=reason
        )

"""The line-at-a-time HTTP/1.1 head parser ``repro.http.wire`` used to run.

Kept as the oracle of ``test_wire_differential.py``: the one-pass head
parser there must give the same messages, or raise the same exception
class and text on the same ``feed``, as this one.  The code below is the
old ``MessageParser`` (with its ``RequestParser`` / ``ResponseParser``)
as it stood, unchanged; the differences the new parser makes on purpose
are stated where the differential allows them.
"""

from __future__ import annotations

from repro.errors import HttpParseError
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.wire import DEFAULT_MAX_BODY, MAX_HEADER_BYTES

_CRLF = b"\r\n"


class MessageParser:
    """Shared incremental parser machinery for requests and responses."""

    #: subclass hook: True for responses (enables read-until-close framing)
    is_response = False

    def __init__(self, max_body: int = DEFAULT_MAX_BODY) -> None:
        # Receive buffer with a consumed-bytes offset: consuming a line or
        # a body slice advances _pos instead of deleting the buffer head
        # (`del buf[:n]` shifts the whole tail — O(n) per line turns a
        # large pipelined burst into quadratic work).  The consumed prefix
        # is trimmed off at amortized O(1) in _compact().
        self._buf = bytearray()
        self._pos = 0
        self._max_body = max_body
        self._state = "start-line"
        self._eof = False
        # per-message scratch
        self._start: tuple[str, str, str] | None = None
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
        self._compact()

    def feed_eof(self) -> None:
        """Signal connection close; may complete a read-until-close body."""
        self._eof = True
        self._advance()
        if self._state == "body-until-close":
            self._finish_message()
        elif self._state != "start-line" or self._pos < len(self._buf):
            raise HttpParseError("connection closed mid-message")

    def next_message(self):
        """Pop one completed message, or None."""
        if self._ready:
            return self._ready.pop(0)
        return None

    @property
    def idle(self) -> bool:
        """True when no partial message is buffered (safe keep-alive point)."""
        return (
            self._state == "start-line"
            and self._pos >= len(self._buf)
            and not self._ready
        )

    def _compact(self) -> None:
        """Trim the consumed prefix once it dominates the buffer.

        Deferred until the consumed span is both large and the majority of
        the buffer, so the O(n) shift happens at most once per O(n)
        consumed bytes — amortized constant time."""
        if self._pos > 4096 and self._pos * 2 > len(self._buf):
            del self._buf[: self._pos]
            self._pos = 0

    # -- state machine -----------------------------------------------------
    def _advance(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._state == "start-line":
                progress = self._parse_start_line()
            elif self._state == "headers":
                progress = self._parse_headers()
            elif self._state == "body-length":
                progress = self._parse_body_length()
            elif self._state == "chunk-size":
                progress = self._parse_chunk_size()
            elif self._state == "chunk-data":
                progress = self._parse_chunk_data()
            elif self._state == "body-until-close":
                progress = self._parse_until_close()

    def _take_line(self) -> bytes | None:
        idx = self._buf.find(_CRLF, self._pos)
        if idx < 0:
            if len(self._buf) - self._pos > MAX_HEADER_BYTES:
                raise HttpParseError("header line exceeds limit")
            return None
        line = bytes(self._buf[self._pos : idx])
        self._pos = idx + 2
        return line

    def _parse_start_line(self) -> bool:
        line = self._take_line()
        if line is None:
            return False
        if not line:
            return True  # tolerate leading blank line (robustness, RFC 7230 3.5)
        try:
            text = line.decode("latin-1")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
            raise HttpParseError("undecodable start line") from None
        parts = text.split(" ", 2)
        if len(parts) < 3:
            raise HttpParseError(f"malformed start line {text!r}")
        self._start = (parts[0], parts[1], parts[2])
        self._headers = Headers()
        self._body = bytearray()
        self._state = "headers"
        return True

    def _parse_headers(self) -> bool:
        assert self._headers is not None
        header_bytes = 0
        while True:
            line = self._take_line()
            if line is None:
                return False
            if not line:
                self._begin_body()
                return True
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                raise HttpParseError("header block exceeds limit")
            if line[0:1] in (b" ", b"\t"):
                raise HttpParseError("obsolete header folding not supported")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep or not name or name != name.strip():
                raise HttpParseError(f"malformed header line {line!r}")
            self._headers.add(name, value.strip())

    def _begin_body(self) -> None:
        assert self._headers is not None
        te = self._headers.get("Transfer-Encoding")
        cl = self._headers.get("Content-Length")
        if self.expect_no_body:
            self._finish_message()
            return
        if te is not None:
            if te.strip().lower() != "chunked":
                raise HttpParseError(f"unsupported Transfer-Encoding {te!r}")
            if cl is not None:
                raise HttpParseError("both Content-Length and Transfer-Encoding")
            self._state = "chunk-size"
            return
        if cl is not None:
            values = self._headers.get_all("Content-Length")
            if len(set(values)) != 1:
                raise HttpParseError("conflicting Content-Length values")
            try:
                self._remaining = int(cl)
            except ValueError:
                raise HttpParseError(f"bad Content-Length {cl!r}") from None
            if self._remaining < 0:
                raise HttpParseError("negative Content-Length")
            if self._remaining > self._max_body:
                raise HttpParseError("declared body exceeds limit")
            if self._remaining == 0:
                self._finish_message()
            else:
                self._state = "body-length"
            return
        if self.is_response:
            try:
                status = int(self._start[1]) if self._start else 0
            except ValueError:
                raise HttpParseError(
                    f"bad status code {self._start[1]!r}"
                ) from None
            if status in (204, 304) or 100 <= status < 200:
                self._finish_message()
            else:
                self._state = "body-until-close"
            return
        # request without framing info has no body
        self._finish_message()

    def _parse_body_length(self) -> bool:
        available = len(self._buf) - self._pos
        if available <= 0:
            return False
        take = min(self._remaining, available)
        self._body.extend(self._buf[self._pos : self._pos + take])
        self._pos += take
        self._remaining -= take
        if self._remaining == 0:
            self._finish_message()
            return True
        return False

    def _parse_chunk_size(self) -> bool:
        line = self._take_line()
        if line is None:
            return False
        if self._chunk_trailer:
            # trailers: skip lines until the blank terminator
            if line:
                return True
            self._chunk_trailer = False
            self._finish_message()
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

    def _finish_message(self) -> None:
        assert self._start is not None and self._headers is not None
        self._ready.append(self._build(self._start, self._headers, bytes(self._body)))
        self._start = None
        self._headers = None
        self._body = bytearray()
        self._remaining = 0
        self._state = "start-line"
        self.expect_no_body = False

    def _build(self, start: tuple[str, str, str], headers: Headers, body: bytes):
        raise NotImplementedError


class RequestParser(MessageParser):
    """Incremental parser yielding :class:`HttpRequest` objects."""

    is_response = False

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

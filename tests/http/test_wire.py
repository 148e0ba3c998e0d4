"""Tests for the incremental HTTP wire codec."""

import time

import pytest

from repro.errors import HttpParseError
from repro.http import HttpRequest, HttpResponse
from repro.http.wire import (
    RequestParser,
    ResponseParser,
    serialize_request,
    serialize_response,
)


def parse_request(data: bytes) -> HttpRequest:
    p = RequestParser()
    p.feed(data)
    msg = p.next_message()
    assert msg is not None, "incomplete request"
    return msg


def parse_response(data: bytes, eof: bool = False) -> HttpResponse:
    p = ResponseParser()
    p.feed(data)
    if eof:
        p.feed_eof()
    msg = p.next_message()
    assert msg is not None, "incomplete response"
    return msg


class TestSerializeRequest:
    def test_basic(self):
        req = HttpRequest("GET", "/path")
        wire = serialize_request(req)
        assert wire.startswith(b"GET /path HTTP/1.1\r\n")
        assert wire.endswith(b"\r\n\r\n")

    def test_content_length_added_for_body(self):
        req = HttpRequest("POST", "/", body=b"hello")
        assert b"Content-Length: 5\r\n" in serialize_request(req)

    def test_zero_length_post_gets_content_length(self):
        req = HttpRequest("POST", "/")
        assert b"Content-Length: 0\r\n" in serialize_request(req)

    def test_existing_framing_respected(self):
        req = HttpRequest("POST", "/", body=b"x")
        req.headers.set("Content-Length", "1")
        assert serialize_request(req).count(b"Content-Length") == 1


class TestSerializeResponse:
    def test_basic(self):
        resp = HttpResponse(200, body=b"ok")
        wire = serialize_response(resp)
        assert wire.startswith(b"HTTP/1.1 200 OK\r\n")
        assert wire.endswith(b"ok")
        assert b"Content-Length: 2\r\n" in wire

    def test_custom_reason(self):
        resp = HttpResponse(299, reason="Custom")
        assert b"299 Custom" in serialize_response(resp)


class TestRequestParsing:
    def test_roundtrip(self):
        req = HttpRequest("POST", "/svc", body=b"<xml/>")
        req.headers.set("Content-Type", "text/xml")
        parsed = parse_request(serialize_request(req))
        assert parsed.method == "POST"
        assert parsed.target == "/svc"
        assert parsed.body == b"<xml/>"
        assert parsed.headers.get("content-type") == "text/xml"

    def test_request_without_body(self):
        parsed = parse_request(b"GET / HTTP/1.1\r\nHost: h\r\n\r\n")
        assert parsed.body == b""

    def test_byte_at_a_time(self):
        wire = serialize_request(HttpRequest("POST", "/", body=b"abc"))
        p = RequestParser()
        for i in range(len(wire)):
            assert p.next_message() is None
            p.feed(wire[i : i + 1])
        msg = p.next_message()
        assert msg is not None and msg.body == b"abc"

    def test_pipelined_requests(self):
        wire = serialize_request(HttpRequest("POST", "/a", body=b"1"))
        wire += serialize_request(HttpRequest("POST", "/b", body=b"2"))
        p = RequestParser()
        p.feed(wire)
        first = p.next_message()
        second = p.next_message()
        assert first.target == "/a" and first.body == b"1"
        assert second.target == "/b" and second.body == b"2"
        assert p.idle

    def test_leading_blank_line_tolerated(self):
        parsed = parse_request(b"\r\nGET / HTTP/1.1\r\n\r\n")
        assert parsed.method == "GET"

    def test_chunked_request(self):
        wire = (
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"3\r\nabc\r\n8\r\ndefghijk\r\n0\r\n\r\n"
        )
        assert parse_request(wire).body == b"abcdefghijk"

    def test_chunked_with_extensions_and_trailers(self):
        wire = (
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"3;ext=1\r\nabc\r\n0\r\nTrailer: x\r\n\r\n"
        )
        assert parse_request(wire).body == b"abc"

    @pytest.mark.parametrize(
        "wire",
        [
            b"BAD\r\n\r\n",  # malformed start line
            b"GET / HTTP/2.0\r\n\r\n",  # unsupported version
            b"get / HTTP/1.1\r\n\r\n",  # lowercase method
            b"GET / HTTP/1.1\r\nBad Header\r\n\r\n",  # no colon
            b"GET / HTTP/1.1\r\n Bad: folded\r\n\r\n",  # folding
            b"POST / HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\n",
        ],
    )
    def test_protocol_violations(self, wire):
        p = RequestParser()
        with pytest.raises(HttpParseError):
            p.feed(wire)
            p.next_message()

    def test_body_limit_enforced(self):
        p = RequestParser(max_body=10)
        with pytest.raises(HttpParseError):
            p.feed(b"POST / HTTP/1.1\r\nContent-Length: 11\r\n\r\n")

    def test_chunked_body_limit_enforced(self):
        p = RequestParser(max_body=4)
        with pytest.raises(HttpParseError):
            p.feed(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"5\r\nabcde\r\n"
            )

    def test_eof_mid_message_raises(self):
        p = RequestParser()
        p.feed(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab")
        with pytest.raises(HttpParseError):
            p.feed_eof()

    def test_eof_at_boundary_ok(self):
        p = RequestParser()
        p.feed(serialize_request(HttpRequest("GET", "/")))
        p.next_message()
        p.feed_eof()  # no error


class TestResponseParsing:
    def test_roundtrip(self):
        resp = HttpResponse(404, body=b"missing")
        parsed = parse_response(serialize_response(resp))
        assert parsed.status == 404
        assert parsed.body == b"missing"
        assert parsed.reason == "Not Found"

    def test_204_has_no_body(self):
        parsed = parse_response(b"HTTP/1.1 204 No Content\r\n\r\n")
        assert parsed.body == b""

    def test_read_until_close(self):
        p = ResponseParser()
        p.feed(b"HTTP/1.1 200 OK\r\n\r\npartial")
        assert p.next_message() is None
        p.feed(b" data")
        p.feed_eof()
        msg = p.next_message()
        assert msg.body == b"partial data"

    def test_head_response_with_content_length(self):
        p = ResponseParser()
        p.expect_no_body = True
        p.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\n")
        msg = p.next_message()
        assert msg is not None and msg.body == b""

    def test_bad_status_code(self):
        p = ResponseParser()
        with pytest.raises(HttpParseError):
            p.feed(b"HTTP/1.1 abc Oops\r\nContent-Length: 0\r\n\r\n")
            p.next_message()

    def test_chunked_response(self):
        wire = (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"4\r\nwiki\r\n0\r\n\r\n"
        )
        assert parse_response(wire).body == b"wiki"


def test_header_block_size_limit():
    p = RequestParser()
    huge = b"GET / HTTP/1.1\r\n" + b"X: " + b"a" * 40_000 + b"\r\n\r\n"
    with pytest.raises(HttpParseError):
        p.feed(huge)


class TestBufferScaling:
    """The parser buffer must not go quadratic on long pipelined bursts."""

    def test_thousand_pipelined_requests_one_byte_at_a_time(self):
        # Regression: consuming used to `del buf[:n]` per line, making a
        # long burst O(n^2).  1000 requests fed a byte at a time must parse
        # in well under a second; with the old buffering this took minutes.
        body = b"x" * 32
        one = (
            b"POST /svc HTTP/1.1\r\nContent-Length: 32\r\n\r\n" + body
        )
        wire = one * 1000
        p = RequestParser()
        seen = 0
        start = time.monotonic()
        for i in range(len(wire)):
            p.feed(wire[i : i + 1])
            while p.next_message() is not None:
                seen += 1
        elapsed = time.monotonic() - start
        assert seen == 1000
        assert p.idle
        assert elapsed < 5.0  # generous bound; quadratic behavior blows it
        # the consumed prefix must have been trimmed, not retained forever
        assert len(p._buf) < len(wire)

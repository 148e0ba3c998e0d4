"""Responses that end at their head whatever their framing fields say.

RFC 7230 3.3.3 rule 1: a 1xx, 204 or 304 response is terminated by the
first empty line after its header fields.  Reading a body for one of them
takes the next response's first bytes, and the connection loses its
place: the next status line no longer parses.

One exception is kept: a 204 or 304 with a ``Content-Length`` still has
that many body bytes read, because ``serialize_response`` writes the body
it is given with its length, and its own parser must read it back
(``tests/http/test_wire_property.py::test_response_roundtrip``).
"""

from __future__ import annotations

import pytest

from repro.http import Headers, HttpRequest, ResponseParser
from repro.http.session import RECV, SEND, exchange


class Conn:
    closed = False

    def close(self) -> None:
        self.closed = True


NEXT = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"

HEADS = [
    pytest.param(b"HTTP/1.1 100 Continue\r\nContent-Length: 5\r\n\r\n", id="100-length"),
    pytest.param(b"HTTP/1.1 101 Switching\r\nTransfer-Encoding: chunked\r\n\r\n",
                 id="101-chunked"),
    pytest.param(b"HTTP/1.1 103 Early Hints\r\nContent-Length: 0\r\n"
                 b"Transfer-Encoding: chunked\r\n\r\n", id="103-both"),
    pytest.param(b"HTTP/1.1 204 No Content\r\nTransfer-Encoding: chunked\r\n\r\n",
                 id="204-chunked"),
    pytest.param(b"HTTP/1.1 304 Not Modified\r\nTransfer-Encoding: chunked\r\n\r\n",
                 id="304-chunked"),
]


@pytest.mark.parametrize("head", HEADS)
def test_response_parser_ends_it_at_its_head(head):
    parser = ResponseParser()
    parser.feed(head + NEXT)
    first, second = parser.next_message(), parser.next_message()
    assert first.status == int(head[9:12]) and first.body == b""
    assert (second.status, second.body) == (200, b"ok")
    assert parser.idle


@pytest.mark.parametrize("head", HEADS[3:])
def test_exchange_keeps_its_place_after_one(head):
    """Through the client contract: a burst of two answered by a bodiless
    response then a 200 gets both, and the connection stays usable."""
    batch = [HttpRequest("GET", "/a", headers=Headers()),
             HttpRequest("GET", "/b", headers=Headers())]
    conn = Conn()
    steps = exchange(conn, batch, 1.0)
    effect = next(steps)
    assert effect[0] == SEND
    effect = steps.send(None)
    assert effect[0] == RECV
    with pytest.raises(StopIteration) as done:
        steps.send(head + NEXT)
    responses, cut, _resend, clean = done.value.value
    assert [(r.status, r.body) for r in responses] == [(int(head[9:12]), b""), (200, b"ok")]
    assert cut is None and clean and not conn.closed


@pytest.mark.parametrize("status", [204, 304])
def test_a_204_or_304_with_content_length_keeps_its_body(status):
    parser = ResponseParser()
    parser.feed(b"HTTP/1.1 %d x\r\nContent-Length: 3\r\n\r\nabc" % status + NEXT)
    assert parser.next_message().body == b"abc"
    assert parser.next_message().body == b"ok"

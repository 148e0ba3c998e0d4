"""The one-pass head parser against the line-at-a-time one it replaced.

``reference_parser.py`` keeps the old parser.  Both are fed the same byte
stream, valid or damaged, cut into feeds at arbitrary points; after every
feed they must hold the same messages and the same ``idle``, or raise the
same exception class with the same text on that same feed.

Two differences are made on purpose, and the streams here steer round
them (each has its own test):

- a 1xx response with ``Content-Length`` or ``Transfer-Encoding``, and a
  204 or 304 with ``Transfer-Encoding``, end at their head
  (``test_bodiless_responses.py``);
- the header block limit counts the whole head.  The old parser started
  the count again on every ``feed``, so a block over the limit that came
  in pieces could get through; here it is refused no later than the old
  parser refused it, and always (``test_block_limit_counts_the_whole_head``).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.http.wire import MAX_HEADER_BYTES, RequestParser, ResponseParser
from tests.http import reference_parser

_name = st.from_regex(r"[A-Za-z][A-Za-z0-9-]{0,10}", fullmatch=True)
_value = st.from_regex(r"[ -~\xa0-\xff]{0,16}", fullmatch=True)


@st.composite
def plain_field(draw) -> str:
    name = draw(_name)
    if name.lower() in ("content-length", "transfer-encoding"):
        name = "X-" + name
    return f"{name}:{draw(st.sampled_from(['', ' ', '  ', chr(9)]))}{draw(_value)}"


@st.composite
def damaged_field(draw) -> str:
    name, value = draw(_name), draw(_value)
    return draw(st.sampled_from([
        f" {name}: {value}",  # folding
        f"\t{name}: {value}",
        f"{name}: a\rb{value}",  # a bare CR or LF inside the value
        f"{name}: {value}\nb",
        f"{name}:\n{value}",  # ... or at its edge, which strip() drops
        f"{name}: {value}\r",
        f"{name} {value}",  # no colon
        f"{name} : {value}",  # padded name
        f"{name}\x0b: {value}",
        f": {value}",  # no name
        f"Bad {name}: {value}",  # a space inside the name
        f"X\x0b{name}: {value}",  # whitespace the name check lets through
        f"{name}\x85x: {value}",
    ]))


#: framing -> the fields that say it; the body is written to match, or not
FRAMINGS = ["none", "length", "short", "chunked", "trailers", "conflict",
            "same-twice", "bad-length", "negative", "gzip", "both", "bad-chunk"]


@st.composite
def message(draw, response: bool) -> bytes:
    if response:
        status = draw(st.sampled_from(
            ["200 OK", "202 Accepted", "404 Not Found", "500 x", "204 No Content",
             "304 Not Modified", "100 Continue", "abc OK", "999 Odd", "200"]
        ))
        start = draw(st.sampled_from([f"HTTP/1.1 {status}", f"HTTP/1.0 {status}",
                                      f"HTTP/2.0 {status}", "garbage"]))
    else:
        start = draw(st.sampled_from(
            ["POST /x HTTP/1.1", "GET / HTTP/1.0", "PUT /a/b HTTP/1.1",
             "GET / HTTP/2.0", "get / HTTP/1.1", "GET  HTTP/1.1", " / HTTP/1.1",
             "BAD", "GET /"]
        ))
    fields = draw(st.lists(st.one_of(plain_field(), damaged_field()) if draw(st.booleans())
                           else plain_field(), max_size=4))
    framing = draw(st.sampled_from(FRAMINGS))
    code = start.split(" ")[1] if start.count(" ") else ""
    if response and code.startswith("1"):
        framing = "none"  # a stated difference: see the module docstring
    if response and code in ("204", "304") and framing in (
        "chunked", "trailers", "gzip", "bad-chunk"
    ):
        framing = "length"
    body = draw(st.binary(max_size=40))
    n = len(body)
    tail = b""
    if framing in ("length", "short"):
        fields.append(f"Content-Length: {n + (3 if framing == 'short' else 0)}")
        tail = body
    elif framing in ("chunked", "trailers", "bad-chunk"):
        fields.append("Transfer-Encoding: chunked")
        cut = draw(st.integers(0, n))
        for part in (body[:cut], body[cut:]):
            if part:
                tail += b"%x;ext=1\r\n%s\r\n" % (len(part), part)
        if framing == "bad-chunk":
            tail += b"zz\r\n"
        tail += b"0\r\n" + (b"X-Trailer: t\r\n" if framing == "trailers" else b"") + b"\r\n"
    elif framing == "conflict":
        fields += [f"Content-Length: {n}", f"content-length: {n + 1}"]
        tail = body
    elif framing == "same-twice":
        fields += [f"Content-Length: {n}", f"CONTENT-LENGTH: {n}"]
        tail = body
    elif framing == "bad-length":
        fields.append("Content-Length: 1x")
    elif framing == "negative":
        fields.append("Content-Length: -1")
    elif framing == "gzip":
        fields.append("Transfer-Encoding: gzip")
    elif framing == "both":
        fields += [f"Content-Length: {n}", "Transfer-Encoding: chunked"]
    elif response:
        tail = body  # read until close
    fields = draw(st.permutations(fields))
    blank = b"\r\n" * draw(st.integers(0, 2))
    head = "\r\n".join([start, *fields]) + "\r\n\r\n"
    return blank + head.encode("latin-1") + tail


@st.composite
def stream(draw, response: bool) -> bytes:
    wire = b"".join(draw(st.lists(message(response), min_size=1, max_size=3)))
    if draw(st.booleans()):
        wire += draw(st.sampled_from([b"\r\n", b"GET", b"HTTP/1.1 2", b"x\r\n"]))
    return wire


def cut(wire: bytes, points: list[int]) -> list[bytes]:
    points = sorted({min(p, len(wire)) for p in points})
    out, prev = [], 0
    for p in points:
        out.append(wire[prev:p])
        prev = p
    out.append(wire[prev:])
    return out


def snapshot(message) -> tuple:
    head = (
        (message.status, message.reason, message.version)
        if hasattr(message, "status")
        else (message.method, message.target, message.version)
    )
    fields = list(message.headers)
    by_name = sorted(
        (name.lower(), message.headers.get_all(name), message.headers.get(name),
         name.upper() in message.headers)
        for name, _ in fields
    )
    return head, fields, by_name, message.body


def play(parser, feeds: list[bytes], eof: bool) -> list:
    """What the parser shows after each feed, up to the first refusal."""
    seen = []
    steps = [("feed", chunk) for chunk in feeds] + ([("eof", b"")] if eof else [])
    for kind, chunk in steps:
        try:
            parser.feed(chunk) if kind == "feed" else parser.feed_eof()
        except Exception as exc:  # noqa: BLE001 - the class is what is compared
            seen.append(("raised", type(exc).__name__, str(exc)))
            return seen
        ready = []
        while (msg := parser.next_message()) is not None:
            ready.append(snapshot(msg))
        seen.append((ready, parser.idle))
    return seen


def differ(new_cls, old_cls, wire: bytes, points: list[int], eof: bool) -> None:
    feeds = cut(wire, points)
    assert play(new_cls(), feeds, eof) == play(old_cls(), feeds, eof)


_points = st.lists(st.integers(0, 400), max_size=8)


@given(stream(response=False), _points, st.booleans())
@settings(max_examples=200, deadline=None)
def test_requests_parse_as_before(wire, points, eof):
    differ(RequestParser, reference_parser.RequestParser, wire, points, eof)


@given(stream(response=True), _points, st.booleans())
@settings(max_examples=200, deadline=None)
def test_responses_parse_as_before(wire, points, eof):
    differ(ResponseParser, reference_parser.ResponseParser, wire, points, eof)


@given(st.booleans().flatmap(lambda response: st.tuples(st.just(response), stream(response))))
@settings(max_examples=100, deadline=None)
def test_byte_at_a_time_parses_as_before(case):
    """Every boundary at once: a line is refused by the feed that ends it."""
    response, wire = case
    if response:
        differ(ResponseParser, reference_parser.ResponseParser, wire, [*range(len(wire))], True)
    else:
        differ(RequestParser, reference_parser.RequestParser, wire, [*range(len(wire))], True)


@given(st.integers(1, 3), st.sampled_from(["start", "field"]),
       st.lists(st.integers(0, 40_000), max_size=4))
@settings(max_examples=40, deadline=None)
def test_oversize_lines_parse_as_before(lines, where, points):
    """A line past the limit, whole or still arriving, start line or field."""
    big = "x" * (MAX_HEADER_BYTES + 10)
    start = f"GET /{big} HTTP/1.1" if where == "start" else "GET / HTTP/1.1"
    fields = [f"X-Big: {big}" if where == "field" else "A: b"] * lines
    wire = ("\r\n".join([start, *fields]) + "\r\n\r\n").encode()
    differ(RequestParser, reference_parser.RequestParser, wire, points, False)
    differ(RequestParser, reference_parser.RequestParser, wire[:-4], points, False)


@given(st.lists(st.integers(0, 40_000), max_size=6))
@settings(max_examples=40, deadline=None)
def test_block_limit_counts_the_whole_head(points):
    fields = [f"X-F{i}: {'v' * 1000}" for i in range(40)]
    wire = ("\r\n".join(["GET / HTTP/1.1", *fields]) + "\r\n\r\n").encode()
    feeds = cut(wire, points)
    new = play(RequestParser(), feeds, False)
    old = play(reference_parser.RequestParser(), feeds, False)
    assert new[-1] == ("raised", "HttpParseError", "header block exceeds limit")
    if old[-1][0] == "raised":
        assert old[-1] == new[-1] and len(new) <= len(old)
    assert len(old) >= len(new) and old[: len(new) - 1] == new[:-1]

"""Property-based tests for the HTTP wire codec.

Invariants: (1) serialize∘parse is the identity on messages; (2) parsing
is insensitive to how the byte stream is sliced into feed() calls.
"""

from hypothesis import given, settings, strategies as st

from repro.http import Headers, HttpRequest, HttpResponse
from repro.http.wire import (
    RequestParser,
    ResponseParser,
    serialize_request,
    serialize_response,
)

_token = st.from_regex(r"[A-Za-z][A-Za-z0-9-]{0,10}", fullmatch=True)
_value = st.from_regex(r"[ -~]{0,30}", fullmatch=True).map(str.strip)
_body = st.binary(max_size=200)
_method = st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD"])
_target = st.from_regex(r"/[A-Za-z0-9/_.-]{0,20}", fullmatch=True)

_RESERVED = {
    "content-length",
    "transfer-encoding",
    "connection",
}


@st.composite
def plain_headers(draw):
    h = Headers()
    for _ in range(draw(st.integers(0, 4))):
        name = draw(_token)
        if name.lower() in _RESERVED:
            continue
        h.add(name, draw(_value))
    return h


@st.composite
def requests(draw):
    method = draw(_method)
    body = b"" if method in ("GET", "HEAD") else draw(_body)
    return HttpRequest(
        method, draw(_target), headers=draw(plain_headers()), body=body
    )


@st.composite
def responses(draw):
    return HttpResponse(
        draw(st.integers(200, 599)),
        headers=draw(plain_headers()),
        body=draw(_body),
    )


def _chunks(data: bytes, cuts: list[int]):
    points = sorted({min(c, len(data)) for c in cuts})
    prev = 0
    out = []
    for p in points:
        out.append(data[prev:p])
        prev = p
    out.append(data[prev:])
    return out


@given(requests())
@settings(max_examples=100, deadline=None)
def test_request_roundtrip(req):
    p = RequestParser()
    p.feed(serialize_request(req))
    parsed = p.next_message()
    assert parsed.method == req.method
    assert parsed.target == req.target
    assert parsed.body == req.body
    for name, _ in req.headers:
        assert parsed.headers.get_all(name) == req.headers.get_all(name)


@given(responses())
@settings(max_examples=100, deadline=None)
def test_response_roundtrip(resp):
    p = ResponseParser()
    p.feed(serialize_response(resp))
    parsed = p.next_message()
    assert parsed.status == resp.status
    assert parsed.body == (b"" if resp.status in (204, 304) else resp.body)


@given(requests(), st.lists(st.integers(0, 500), max_size=8))
@settings(max_examples=100, deadline=None)
def test_request_parse_slicing_invariance(req, cuts):
    wire = serialize_request(req)
    whole = RequestParser()
    whole.feed(wire)
    expected = whole.next_message()

    sliced = RequestParser()
    for chunk in _chunks(wire, cuts):
        sliced.feed(chunk)
    got = sliced.next_message()
    assert got.method == expected.method
    assert got.target == expected.target
    assert got.body == expected.body
    assert list(got.headers) == list(expected.headers)


@given(st.lists(requests(), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_pipelined_stream(reqs):
    wire = b"".join(serialize_request(r) for r in reqs)
    p = RequestParser()
    p.feed(wire)
    for expected in reqs:
        got = p.next_message()
        assert got is not None
        assert (got.method, got.target, got.body) == (
            expected.method,
            expected.target,
            expected.body,
        )
    assert p.next_message() is None
    assert p.idle

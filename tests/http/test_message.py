"""Tests for the HTTP message model."""

import pytest

from repro.errors import HttpError
from repro.http import Headers, HttpRequest, HttpResponse


class TestHeaders:
    def test_case_insensitive_get(self):
        h = Headers()
        h.add("Content-Type", "text/xml")
        assert h.get("content-type") == "text/xml"
        assert h.get("CONTENT-TYPE") == "text/xml"

    def test_multi_value_preserved(self):
        h = Headers()
        h.add("Via", "1.1 a")
        h.add("Via", "1.1 b")
        assert h.get_all("via") == ["1.1 a", "1.1 b"]
        assert h.get("via") == "1.1 a"

    def test_set_replaces_all(self):
        h = Headers()
        h.add("X", "1")
        h.add("x", "2")
        h.set("X", "3")
        assert h.get_all("x") == ["3"]

    def test_remove(self):
        h = Headers([("A", "1"), ("a", "2"), ("B", "3")])
        h.remove("a")
        assert "A" not in h
        assert h.get("B") == "3"

    def test_iteration_preserves_order(self):
        h = Headers([("B", "2"), ("A", "1")])
        assert list(h) == [("B", "2"), ("A", "1")]

    def test_rejects_bad_names(self):
        h = Headers()
        for bad in ("", "a b", "a:b", "a\nb"):
            with pytest.raises(HttpError):
                h.add(bad, "v")

    def test_rejects_crlf_in_values(self):
        with pytest.raises(HttpError):
            Headers().add("X", "inject\r\nEvil: yes")

    @pytest.mark.parametrize("put", [Headers.add, Headers.set])
    @pytest.mark.parametrize(
        "name, value",
        [
            ("", "v"),  # empty name
            ("a b", "v"), (" ab", "v"),  # SP
            ("a\tb", "v"),  # HT
            ("a\rb", "v"), ("ab\r", "v"),  # CR
            ("a\nb", "v"), ("\nab", "v"),  # LF
            ("a:b", "v"), ("ab:", "v"),  # the colon
            ("X", "bare\rCR"),
            ("X", "bare\nLF"),
        ],
    )
    def test_rejects_what_would_split_a_field(self, put, name, value):
        h = Headers([("Kept", "1")])
        with pytest.raises(HttpError):
            put(h, name, value)
        assert list(h) == [("Kept", "1")]

    @pytest.mark.parametrize(
        "name",
        [
            # every name this repo's parser and serializers put on the wire
            "Content-Type", "Content-Length", "Connection", "Host", "Via",
            "User-Agent", "Retry-After", "SOAPAction",
            # and the rest of RFC 9110's token alphabet
            "x", "X-Trace_Id.v2", "!#$%&'*+-.^_`|~09azAZ",
        ],
    )
    def test_accepts_every_token_name(self, name):
        h = Headers()
        h.add(name, "a value: with SP, HT\t and a colon")
        h.set(name, "")
        assert h.get(name) == ""

    def test_copy_independent(self):
        h = Headers([("A", "1")])
        dup = h.copy()
        dup.add("B", "2")
        assert "B" not in h


class TestHttpRequest:
    def test_validates_method(self):
        with pytest.raises(HttpError):
            HttpRequest("get", "/")
        with pytest.raises(HttpError):
            HttpRequest("", "/")

    def test_validates_target(self):
        with pytest.raises(HttpError):
            HttpRequest("GET", "")
        with pytest.raises(HttpError):
            HttpRequest("GET", "/a b")

    def test_keep_alive_default_11(self):
        assert HttpRequest("GET", "/").keep_alive is True

    def test_connection_close(self):
        req = HttpRequest("GET", "/")
        req.headers.set("Connection", "close")
        assert req.keep_alive is False

    def test_connection_token_list(self):
        req = HttpRequest("GET", "/")
        req.headers.set("Connection", "keep-alive, Close")
        assert req.keep_alive is False

    def test_http10_defaults_to_close(self):
        req = HttpRequest("GET", "/", version="HTTP/1.0")
        assert req.keep_alive is False
        req.headers.set("Connection", "keep-alive")
        assert req.keep_alive is True


class TestHttpResponse:
    def test_validates_status(self):
        with pytest.raises(HttpError):
            HttpResponse(status=99)
        with pytest.raises(HttpError):
            HttpResponse(status=600)

    def test_ok_range(self):
        assert HttpResponse(200).ok
        assert HttpResponse(204).ok
        assert not HttpResponse(404).ok
        assert not HttpResponse(302).ok

    def test_keep_alive(self):
        assert HttpResponse(200).keep_alive is True
        resp = HttpResponse(200)
        resp.headers.set("Connection", "close")
        assert resp.keep_alive is False

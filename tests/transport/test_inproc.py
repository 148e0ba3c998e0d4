"""Tests for the in-process transport."""

import threading

import pytest

from repro.errors import (
    ConnectionLimitExceeded,
    ConnectionRefused,
    ConnectionTimeout,
    TransportError,
)
from repro.transport.base import Endpoint, parse_http_url
from repro.transport.inproc import stream_pair


class TestEndpoint:
    def test_parse(self):
        ep = Endpoint.parse("host.example:8080")
        assert ep == Endpoint("host.example", 8080)
        assert str(ep) == "host.example:8080"

    def test_parse_rejects_missing_port(self):
        with pytest.raises(ValueError):
            Endpoint.parse("hostonly")


class TestParseHttpUrl:
    def test_full_url(self):
        ep, path = parse_http_url("http://h:9000/a/b")
        assert ep == Endpoint("h", 9000)
        assert path == "/a/b"

    def test_default_port_and_path(self):
        ep, path = parse_http_url("http://h")
        assert ep.port == 80
        assert path == "/"

    def test_rejects_https(self):
        from repro.errors import HttpError

        with pytest.raises(HttpError):
            parse_http_url("https://h/")


class TestStreamPair:
    def test_bidirectional(self):
        a, b = stream_pair()
        a.send(b"ping")
        assert b.recv(100) == b"ping"
        b.send(b"pong")
        assert a.recv(100) == b"pong"

    def test_recv_respects_max_bytes(self):
        a, b = stream_pair()
        a.send(b"abcdef")
        assert b.recv(2) == b"ab"
        assert b.recv(100) == b"cdef"

    def test_close_gives_eof_after_drain(self):
        a, b = stream_pair()
        a.send(b"last")
        a.close()
        assert b.recv(100) == b"last"
        assert b.recv(100) == b""

    def test_send_after_peer_close_raises(self):
        a, b = stream_pair()
        b.close()
        with pytest.raises(TransportError):
            a.send(b"x")

    def test_recv_timeout(self):
        a, b = stream_pair()
        with pytest.raises(ConnectionTimeout):
            b.recv(10, timeout=0.05)


class TestInprocNetwork:
    def test_connect_and_accept(self, inproc):
        listener = inproc.listen("svc:80")
        client = inproc.connect("svc:80")
        server = listener.accept(timeout=1)
        client.send(b"hello")
        assert server.recv(100) == b"hello"

    def test_connect_to_unbound_refused(self, inproc):
        with pytest.raises(ConnectionRefused):
            inproc.connect("nobody:1")

    def test_double_bind_rejected(self, inproc):
        inproc.listen("svc:80")
        with pytest.raises(TransportError):
            inproc.listen("svc:80")

    def test_port_zero_auto_assigns(self, inproc):
        a = inproc.listen("svc:0")
        b = inproc.listen("svc:0")
        assert a.endpoint != b.endpoint
        assert a.endpoint.port >= 49152

    def test_close_unbinds(self, inproc):
        listener = inproc.listen("svc:80")
        listener.close()
        with pytest.raises(ConnectionRefused):
            inproc.connect("svc:80")
        inproc.listen("svc:80")  # rebinding now works

    def test_backlog_limit(self, inproc):
        inproc.listen("svc:80", backlog=2)
        inproc.connect("svc:80")
        inproc.connect("svc:80")
        with pytest.raises(ConnectionLimitExceeded):
            inproc.connect("svc:80")

    def test_accept_timeout(self, inproc):
        listener = inproc.listen("svc:80")
        with pytest.raises(ConnectionTimeout):
            listener.accept(timeout=0.05)

    def test_concurrent_connections_isolated(self, inproc):
        listener = inproc.listen("svc:80")
        results = {}

        def serve():
            for _ in range(2):
                stream = listener.accept(timeout=2)
                data = stream.recv(100)
                stream.send(data.upper())

        t = threading.Thread(target=serve)
        t.start()
        c1 = inproc.connect("svc:80")
        c1.send(b"one")
        results["c1"] = c1.recv(100)
        c2 = inproc.connect("svc:80")
        c2.send(b"two")
        results["c2"] = c2.recv(100)
        t.join(2)
        assert results == {"c1": b"ONE", "c2": b"TWO"}

"""Tests for the threaded HTTP server and pooling client."""

import threading
import time

import pytest

from repro.errors import ConnectionRefused
from repro.http import HttpRequest, HttpResponse
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer


@pytest.fixture
def echo_server(inproc):
    def handler(request: HttpRequest, peer=None) -> HttpResponse:
        if request.target == "/slow":
            time.sleep(0.2)
        if request.target == "/close":
            resp = HttpResponse(200, body=request.body)
            resp.headers.set("Connection", "close")
            return resp
        return HttpResponse(200, body=request.body or request.target.encode())

    # workers >= max parallel connections in these tests: one worker stays
    # bound to each keep-alive connection (the 2005 servlet-container model)
    server = HttpServer(inproc.listen("srv:80"), handler, workers=16)
    server.start()
    yield server
    server.stop()


def test_get_roundtrip(inproc, echo_server):
    client = HttpClient(inproc)
    resp = client.request("http://srv:80/hello", HttpRequest("GET", "/"))
    assert resp.status == 200
    assert resp.body == b"/hello"
    client.close()


def test_post_body_echoed(inproc, echo_server):
    client = HttpClient(inproc)
    resp = client.request(
        "http://srv:80/echo", HttpRequest("POST", "/", body=b"data")
    )
    assert resp.body == b"data"
    client.close()


def test_connection_reused_for_keep_alive(inproc, echo_server):
    client = HttpClient(inproc)
    for _ in range(3):
        client.request("http://srv:80/a", HttpRequest("GET", "/"))
    # 3 requests, 1 connection
    assert echo_server.requests_served == 3
    assert echo_server.connections_served == 1
    client.close()


def test_connection_close_honoured(inproc, echo_server):
    client = HttpClient(inproc)
    client.request("http://srv:80/close", HttpRequest("POST", "/", body=b"x"))
    client.request("http://srv:80/close", HttpRequest("POST", "/", body=b"y"))
    assert echo_server.connections_served == 2
    client.close()


def test_client_connection_close_request(inproc, echo_server):
    client = HttpClient(inproc)
    req = HttpRequest("GET", "/")
    req.headers.set("Connection", "close")
    resp = client.request("http://srv:80/x", req)
    assert resp.status == 200
    client.close()


def test_parallel_requests(inproc, echo_server):
    client = HttpClient(inproc)
    results = []
    lock = threading.Lock()

    def call(i):
        resp = client.request(f"http://srv:80/r{i}", HttpRequest("GET", "/"))
        with lock:
            results.append(resp.body)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5)
    assert sorted(results) == sorted(f"/r{i}".encode() for i in range(8))
    client.close()


def test_connect_to_missing_server(inproc):
    client = HttpClient(inproc)
    with pytest.raises(ConnectionRefused):
        client.request("http://ghost:80/", HttpRequest("GET", "/"))
    client.close()


def test_stale_pooled_connection_retried(inproc):
    """A pooled connection the server closed must be retried transparently."""
    accepted = []

    def handler(request, peer=None):
        return HttpResponse(200, body=b"ok")

    listener = inproc.listen("srv2:80")
    server = HttpServer(listener, handler, workers=2, keep_alive_timeout=0.1)
    server.start()
    client = HttpClient(inproc)
    assert client.request("http://srv2:80/", HttpRequest("GET", "/")).ok
    time.sleep(0.3)  # server dropped the idle connection
    assert client.request("http://srv2:80/", HttpRequest("GET", "/")).ok
    server.stop()
    client.close()


def test_server_url_property(inproc):
    server = HttpServer(inproc.listen("u:8080"), lambda r, p=None: HttpResponse(200))
    assert server.url == "http://u:8080"
    server.stop()

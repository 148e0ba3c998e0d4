"""Edge-case tests for the pooling HTTP client."""

import pytest

from repro.errors import SoapError
from repro.http import HttpRequest, HttpResponse
from repro.http.session import POOL_PER_ENDPOINT
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.soap import Envelope
from repro.workload.echo import make_echo_request


@pytest.fixture
def server(inproc):
    def handler(request: HttpRequest, peer=None) -> HttpResponse:
        if request.target == "/head":
            resp = HttpResponse(200)
            resp.headers.set("Content-Length", "100")  # body never sent
            resp.body = b""
            return resp
        if request.target == "/notsoap":
            return HttpResponse(200, body=b"<html>not soap</html>")
        if request.target == "/accepted":
            return HttpResponse(202)
        if request.target == "/nocontent":
            return HttpResponse(204)
        return HttpResponse(200, body=request.body)

    srv = HttpServer(inproc.listen("edge:80"), handler, workers=8).start()
    yield srv
    srv.stop()


def test_head_request_no_body_expected(inproc, server):
    client = HttpClient(inproc)
    resp = client.request("http://edge:80/head", HttpRequest("HEAD", "/"))
    assert resp.status == 200
    assert resp.body == b""
    client.close()


def test_call_soap_returns_none_for_202_and_204(inproc, server):
    client = HttpClient(inproc)
    assert client.call_soap("http://edge:80/accepted", make_echo_request()) is None
    assert client.call_soap("http://edge:80/nocontent", make_echo_request()) is None
    client.close()


def test_call_soap_rejects_non_soap_response(inproc, server):
    client = HttpClient(inproc)
    with pytest.raises(SoapError):
        client.call_soap("http://edge:80/notsoap", make_echo_request())
    client.close()


def test_post_envelope_sets_content_type(inproc, server):
    client = HttpClient(inproc)
    resp = client.post_envelope("http://edge:80/echo", make_echo_request())
    # the echo handler returned our body; parse to prove integrity
    env = Envelope.from_bytes(resp.body)
    assert env.body is not None
    client.close()


def test_pool_cap_discards_excess_connections(inproc, server):
    import threading

    client = HttpClient(inproc)
    callers = POOL_PER_ENDPOINT + 2
    barrier = threading.Barrier(callers)
    def call():
        barrier.wait(2)
        client.request("http://edge:80/x", HttpRequest("GET", "/"))

    threads = [threading.Thread(target=call) for _ in range(callers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5)
    with client._lock:
        pooled = sum(len(p) for p in client._pools.values())
    assert pooled <= POOL_PER_ENDPOINT
    client.close()


def test_close_prevents_pooling(inproc, server):
    client = HttpClient(inproc)
    client.request("http://edge:80/x", HttpRequest("GET", "/"))
    client.close()
    with client._lock:
        assert not client._pools


def test_target_overwritten_with_url_path(inproc, server):
    client = HttpClient(inproc)
    req = HttpRequest("POST", "/ignored", body=b"payload")
    resp = client.request("http://edge:80/echo", req)
    assert req.target == "/echo"
    assert resp.body == b"payload"
    client.close()


def test_host_header_set(inproc):
    seen = {}

    def handler(request, peer=None):
        seen["host"] = request.headers.get("Host")
        return HttpResponse(200)

    srv = HttpServer(inproc.listen("hosty:8123"), handler).start()
    client = HttpClient(inproc)
    client.request("http://hosty:8123/", HttpRequest("GET", "/"))
    assert seen["host"] == "hosty:8123"
    srv.stop()
    client.close()

"""Tests for the threaded RPC-Dispatcher."""

import pytest

from repro.core.registry import ServiceRegistry
from repro.core.rpc_dispatcher import RpcDispatcher
from repro.errors import AuthError, ReproError
from repro.http import Headers, HttpRequest
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import FunctionService, SoapHttpApp
from repro.soap import (
    Envelope,
    Fault,
    RpcResponse,
    build_rpc_response,
    parse_rpc_request,
    parse_rpc_response,
)
from repro.workload.echo import EchoService, make_echo_request


@pytest.fixture
def world(inproc):
    """Echo WS + registry + dispatcher, all over inproc transport."""
    app = SoapHttpApp()
    app.mount("/echo", EchoService())
    ws = HttpServer(inproc.listen("ws:9000"), app.handle_request, workers=4).start()

    registry = ServiceRegistry()
    registry.register("echo", "http://ws:9000/echo")
    dispatcher = RpcDispatcher(registry, HttpClient(inproc))
    front = HttpServer(
        inproc.listen("wsd:8000"), dispatcher.handle_request, workers=4
    ).start()
    client = HttpClient(inproc)
    yield registry, dispatcher, client
    ws.stop()
    front.stop()
    client.close()


def soap_post(body: bytes) -> HttpRequest:
    headers = Headers()
    headers.set("Content-Type", "text/xml; charset=utf-8")
    return HttpRequest("POST", "/", headers=headers, body=body)


def test_forwards_rpc_call(world):
    registry, dispatcher, client = world
    reply = client.call_soap("http://wsd:8000/rpc/echo", make_echo_request())
    parsed = parse_rpc_response(reply)
    assert parsed.result("return")
    assert dispatcher.stats["forwarded"] == 1


def test_unknown_logical_404(world):
    registry, dispatcher, client = world
    resp = client.post_envelope("http://wsd:8000/rpc/ghost", make_echo_request())
    assert resp.status == 404
    assert Envelope.from_bytes(resp.body).is_fault()
    assert dispatcher.stats["rejected"] == 1


def test_missing_logical_name_404(world):
    registry, dispatcher, client = world
    resp = client.post_envelope("http://wsd:8000/rpc", make_echo_request())
    assert resp.status == 404


def test_invalid_xml_400(world):
    registry, dispatcher, client = world
    resp = client.request("http://wsd:8000/rpc/echo", soap_post(b"garbage"))
    assert resp.status == 400


def test_oversized_body_413(world, inproc):
    registry, dispatcher, client = world
    dispatcher.max_body = 10
    resp = client.request(
        "http://wsd:8000/rpc/echo", soap_post(make_echo_request().to_bytes())
    )
    assert resp.status == 413


def test_non_post_405(world):
    registry, dispatcher, client = world
    resp = client.request("http://wsd:8000/rpc/echo", HttpRequest("GET", "/"))
    assert resp.status == 405


def test_unreachable_service_502(world):
    registry, dispatcher, client = world
    registry.register("dead", "http://nowhere:1/svc")
    resp = client.post_envelope("http://wsd:8000/rpc/dead", make_echo_request())
    assert resp.status == 502
    assert dispatcher.stats["failed"] == 1


def test_service_fault_relayed(world, inproc):
    registry, dispatcher, client = world

    def faulting(envelope, ctx):
        return Envelope(Fault("Server", "deliberate").to_element(envelope.version))

    app = SoapHttpApp()
    app.mount("/bad", FunctionService(faulting))
    ws = HttpServer(inproc.listen("bad:9100"), app.handle_request).start()
    registry.register("bad", "http://bad:9100/bad")
    resp = client.post_envelope("http://wsd:8000/rpc/bad", make_echo_request())
    assert resp.status == 500
    fault = Fault.from_element(Envelope.from_bytes(resp.body).body)
    assert fault.reason == "deliberate"
    ws.stop()


def test_via_header_added(world, inproc):
    """No ``Via`` is added, to the forward or to the reply: the dispatcher
    adds no byte the simulated dispatcher does not (Fig 4 / Fig 5 are
    sized by it)."""
    registry, dispatcher, client = world
    seen = {}

    def spy(envelope, ctx):
        seen["via"] = ctx.http_request.headers.get("Via")
        return build_rpc_response(
            RpcResponse("urn:repro:echo", "echo", [("return", "")]),
        )

    app = SoapHttpApp()
    app.mount("/spy", FunctionService(spy))
    ws = HttpServer(inproc.listen("spy:9200"), app.handle_request).start()
    registry.register("spy", "http://spy:9200/spy")
    response = client.post_envelope("http://wsd:8000/rpc/spy", make_echo_request())
    assert response.status == 200
    assert seen["via"] is None
    assert response.headers.get("Via") is None
    ws.stop()


def test_sso_inspector_enforced(world, inproc):
    """The paper's "security or validity checks" hook, which authentication
    plugs into: a plain function that raises AuthError answers 401, any
    other ReproError 403."""
    registry, dispatcher, client = world

    def inspector(envelope, logical):
        if logical == "echo" and not inspector.allow:
            raise AuthError("no credentials")
        if logical == "sealed":
            raise ReproError("service sealed")

    inspector.allow = False
    dispatcher.inspector = inspector
    registry.register("sealed", "http://ws:9000/echo")

    resp = client.post_envelope("http://wsd:8000/rpc/echo", make_echo_request())
    assert resp.status == 401
    resp = client.post_envelope("http://wsd:8000/rpc/sealed", make_echo_request())
    assert resp.status == 403
    assert dispatcher.stats["rejected"] == 2

    inspector.allow = True
    reply = client.call_soap("http://wsd:8000/rpc/echo", make_echo_request())
    assert parse_rpc_response(reply).result("return") is not None

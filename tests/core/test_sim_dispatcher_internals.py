"""Targeted tests for SimMsgDispatcher internals not hit by the figures."""

import pytest

from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcher, SimMsgDispatcherConfig
from repro.http import Headers, HttpRequest
from repro.simnet.httpsim import SimHttpServer, sim_http_request
from repro.simnet.services import SimAsyncEchoService
from repro.simnet.topology import AccessLink, Network
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message
from repro.wsa import EndpointReference


@pytest.fixture
def world(sim):
    net = Network(sim)
    link = AccessLink(5000, 5000, 0.005)
    client = net.add_host("client", link)
    ws = net.add_host("ws", link)
    wsd = net.add_host("wsd", link)
    registry = ServiceRegistry()
    return net, client, ws, wsd, registry


def soap_post(path, body):
    headers = Headers()
    headers.set("Content-Type", SOAP11_CONTENT_TYPE)
    return HttpRequest("POST", path, headers=headers, body=body)


def test_expired_correlation_drops_response(world):
    net, client, ws, wsd, registry = world
    sim = net.sim
    echo = SimAsyncEchoService(net, ws, response_delay=2.0)  # slow reply
    SimHttpServer(net, ws, 9000, echo.handler)
    registry.register("echo", "http://ws:9000/echo")
    disp = SimMsgDispatcher(
        net, wsd, registry, own_address="http://wsd:8000/msg",
        config=SimMsgDispatcherConfig(correlation_ttl=0.5),  # expires first
    )
    SimHttpServer(net, wsd, 8000, disp.handler)
    ids = IdGenerator("x", seed=1)

    def send():
        msg = make_echo_message(
            to="urn:wsd:echo", message_id=ids.next(),
            reply_to=EndpointReference("http://client:7000/inbox"),
        )
        yield from sim_http_request(
            net, client, "wsd", 8000, soap_post("/msg/echo", msg.to_bytes())
        )

    sim.run(sim.process(send()))
    sim.run(until=sim.now + 10.0)
    assert disp.stats.get("expired_correlations", 0) == 1
    assert disp.stats.get("routed_responses", 0) == 0


def test_malformed_body_rejected_400(world):
    net, client, ws, wsd, registry = world
    sim = net.sim
    disp = SimMsgDispatcher(net, wsd, registry, own_address="http://wsd:8000/msg")
    SimHttpServer(net, wsd, 8000, disp.handler)

    def send():
        resp = yield from sim_http_request(
            net, client, "wsd", 8000, soap_post("/msg/echo", b"not xml at all")
        )
        return resp.status

    assert sim.run(sim.process(send())) == 400
    assert disp.stats["rejected"] == 1


def test_non_post_rejected(world):
    net, client, ws, wsd, registry = world
    sim = net.sim
    disp = SimMsgDispatcher(net, wsd, registry, own_address="http://wsd:8000/msg")
    SimHttpServer(net, wsd, 8000, disp.handler)

    def send():
        resp = yield from sim_http_request(
            net, client, "wsd", 8000, HttpRequest("GET", "/msg/echo")
        )
        return resp.status

    assert sim.run(sim.process(send())) == 405


def test_message_without_wsa_headers_dropped(world):
    net, client, ws, wsd, registry = world
    sim = net.sim
    registry.register("echo", "http://ws:9000/echo")
    disp = SimMsgDispatcher(net, wsd, registry, own_address="http://wsd:8000/msg")
    SimHttpServer(net, wsd, 8000, disp.handler)
    from repro.workload.echo import make_echo_request

    def send():
        resp = yield from sim_http_request(
            net, client, "wsd", 8000,
            soap_post("/msg/echo", make_echo_request().to_bytes()),
        )
        return resp.status

    # accepted (202) but unroutable without MessageID
    assert sim.run(sim.process(send())) == 202
    sim.run(until=sim.now + 2.0)
    assert disp.stats.get("dropped_unroutable", 0) == 1


def test_anonymous_reply_to_response_dropped(world):
    net, client, ws, wsd, registry = world
    sim = net.sim
    echo = SimAsyncEchoService(net, ws)
    SimHttpServer(net, ws, 9000, echo.handler)
    registry.register("echo", "http://ws:9000/echo")
    disp = SimMsgDispatcher(net, wsd, registry, own_address="http://wsd:8000/msg")
    SimHttpServer(net, wsd, 8000, disp.handler)
    ids = IdGenerator("x", seed=2)

    def send():
        msg = make_echo_message(
            to="urn:wsd:echo", message_id=ids.next(),
            reply_to=EndpointReference.anonymous(),
        )
        yield from sim_http_request(
            net, client, "wsd", 8000, soap_post("/msg/echo", msg.to_bytes())
        )

    sim.run(sim.process(send()))
    sim.run(until=sim.now + 3.0)
    # the WS sees anonymous ReplyTo... the dispatcher rewrote it to itself,
    # so the WS replies to the dispatcher, whose correlation says anonymous
    assert disp.stats.get("dropped_no_reply_to", 0) == 1


def test_stop_halts_processing(world):
    net, client, ws, wsd, registry = world
    sim = net.sim
    registry.register("echo", "http://ws:9000/echo")
    disp = SimMsgDispatcher(net, wsd, registry, own_address="http://wsd:8000/msg")
    SimHttpServer(net, wsd, 8000, disp.handler)
    disp.stop()
    ids = IdGenerator("x", seed=3)

    def send():
        msg = make_echo_message(to="urn:wsd:echo", message_id=ids.next())
        resp = yield from sim_http_request(
            net, client, "wsd", 8000, soap_post("/msg/echo", msg.to_bytes())
        )
        return resp.status

    status = sim.run(sim.process(send()))
    assert status == 202  # accepted into the queue
    sim.run(until=sim.now + 3.0)
    assert disp.stats.get("routed_requests", 0) == 0  # but never processed

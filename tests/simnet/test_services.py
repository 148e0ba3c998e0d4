"""Tests for simulated service implementations."""

import pytest

from repro.http import Headers, HttpRequest
from repro.simnet.httpsim import SimHttpServer, sim_http_request
from repro.simnet.firewall import FirewallPolicy
from repro.simnet.services import SimAsyncEchoService
from repro.simnet.topology import AccessLink, Network
from repro.soap.constants import SOAP11_CONTENT_TYPE
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message, make_echo_request
from repro.wsa import AddressingHeaders, EndpointReference


@pytest.fixture
def world(sim):
    net = Network(sim)
    link = AccessLink(5000, 5000, 0.005)
    client = net.add_host("client", link)
    ws = net.add_host("ws", link)
    return net, client, ws


def soap_post(path: str, body: bytes) -> HttpRequest:
    headers = Headers()
    headers.set("Content-Type", SOAP11_CONTENT_TYPE)
    return HttpRequest("POST", path, headers=headers, body=body)


def test_echo_replies_to_reachable_endpoint(world):
    net, client, ws = world
    sim = net.sim
    echo = SimAsyncEchoService(net, ws, reply_senders=4)
    SimHttpServer(net, ws, 9000, echo.handler)

    inbox = []

    def sink_handler(request):
        inbox.append(request.body)
        from repro.http import HttpResponse

        return HttpResponse(202)

    SimHttpServer(net, client, 7000, sink_handler)
    ids = IdGenerator("svc", seed=1)

    def send():
        msg = make_echo_message(
            to="http://ws:9000/echo",
            message_id=ids.next(),
            reply_to=EndpointReference("http://client:7000/inbox"),
        )
        resp = yield from sim_http_request(
            net, client, "ws", 9000, soap_post("/echo", msg.to_bytes())
        )
        return resp.status

    assert sim.run(sim.process(send())) == 202
    sim.run(until=sim.now + 2.0)
    assert echo.counters.get("replies_sent") == 1
    assert len(inbox) == 1


def test_blocked_replies_counted(world):
    net, client, ws = world
    sim = net.sim
    client.firewall = FirewallPolicy.outbound_only()
    echo = SimAsyncEchoService(net, ws, reply_senders=4, connect_timeout=1.0)
    SimHttpServer(net, ws, 9000, echo.handler)
    ids = IdGenerator("svc", seed=2)

    def send():
        msg = make_echo_message(
            to="http://ws:9000/echo",
            message_id=ids.next(),
            reply_to=EndpointReference("http://client:7000/inbox"),
        )
        yield from sim_http_request(
            net, client, "ws", 9000, soap_post("/echo", msg.to_bytes())
        )

    sim.run(sim.process(send()))
    sim.run(until=sim.now + 5.0)
    assert echo.counters.get("replies_blocked") == 1


def test_no_reply_to_means_no_send(world):
    net, client, ws = world
    sim = net.sim
    echo = SimAsyncEchoService(net, ws)
    SimHttpServer(net, ws, 9000, echo.handler)
    ids = IdGenerator("svc", seed=3)

    def send():
        msg = make_echo_message(to="http://ws:9000/echo", message_id=ids.next())
        resp = yield from sim_http_request(
            net, client, "ws", 9000, soap_post("/echo", msg.to_bytes())
        )
        return resp.status

    assert sim.run(sim.process(send())) == 202
    sim.run(until=sim.now + 1.0)
    assert echo.counters.as_dict() == {"received": 1}


def test_a_reply_to_without_message_id_is_a_client_fault(world):
    """Nothing can relate a reply to it, so the echo answers 400 and
    sends nothing, as for any request it cannot read."""
    net, client, ws = world
    sim = net.sim
    echo = SimAsyncEchoService(net, ws)
    SimHttpServer(net, ws, 9000, echo.handler)
    msg = make_echo_request()
    AddressingHeaders(
        to="http://ws:9000/echo", reply_to=EndpointReference("http://client:7000/inbox")
    ).attach(msg)

    def send():
        resp = yield from sim_http_request(
            net, client, "ws", 9000, soap_post("/echo", msg.to_bytes())
        )
        return resp.status, resp.body

    status, body = sim.run(sim.process(send()))
    assert status == 400 and b"MessageID" in body
    sim.run(until=sim.now + 1.0)
    assert echo.counters.as_dict() == {}


def test_sender_pool_saturation_throttles_acceptance(world):
    """The Figure 6(a) mechanism: blocked senders stall new accepts."""
    net, client, ws = world
    sim = net.sim
    client.firewall = FirewallPolicy.outbound_only()
    echo = SimAsyncEchoService(net, ws, reply_senders=1, connect_timeout=5.0)
    SimHttpServer(net, ws, 9000, echo.handler, workers=8)
    ids = IdGenerator("svc", seed=4)
    accept_times = []

    def send(i):
        msg = make_echo_message(
            to="http://ws:9000/echo",
            message_id=ids.next(),
            reply_to=EndpointReference(f"http://client:{7000 + i}/inbox"),
        )
        resp = yield from sim_http_request(
            net, client, "ws", 9000, soap_post("/echo", msg.to_bytes()),
            response_timeout=60.0,
        )
        accept_times.append(sim.now)
        return resp.status

    for i in range(3):
        sim.process(send(i))
    sim.run()
    # first accept is fast; the next ones wait for the single wedged sender
    accept_times.sort()
    assert accept_times[1] - accept_times[0] >= 4.0


def test_unroutable_reply_address_counted(world):
    net, client, ws = world
    sim = net.sim
    echo = SimAsyncEchoService(net, ws)
    SimHttpServer(net, ws, 9000, echo.handler)
    ids = IdGenerator("svc", seed=5)

    def send():
        msg = make_echo_message(
            to="http://ws:9000/echo",
            message_id=ids.next(),
            reply_to=EndpointReference("not-a-url"),
        )
        yield from sim_http_request(
            net, client, "ws", 9000, soap_post("/echo", msg.to_bytes())
        )

    sim.run(sim.process(send()))
    sim.run(until=sim.now + 1.0)
    assert echo.counters.get("replies_unroutable") == 1

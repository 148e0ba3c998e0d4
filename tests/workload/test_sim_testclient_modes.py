"""Tests for sim test client connection modes and edge behaviour."""

from repro.rt.service import SoapHttpApp
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.kernel import Simulator
from repro.simnet.topology import AccessLink, Network
from repro.workload.echo import EchoService
from repro.workload.sim_testclient import (
    SimRampConfig,
    SimRampTester,
    default_request_factory,
)


def build_world():
    sim = Simulator()
    net = Network(sim)
    client = net.add_host("client", AccessLink(5000, 5000, 0.005))
    server_host = net.add_host("server", AccessLink(5000, 5000, 0.005))
    app = SoapHttpApp()
    app.mount("/echo", EchoService())
    server = SimHttpServer(
        net, server_host, 80, lambda r: app.handle_request(r, None)
    )
    return net, client, server


def closing_requests():
    """The default echo request, asking the server to close after it."""
    request = default_request_factory()
    request.headers.set("Connection", "close")
    return request


def test_keep_alive_uses_one_connection_per_client():
    net, client, server = build_world()
    tester = SimRampTester(net, client, "server", 80, "/echo")
    result = tester.run(SimRampConfig(clients=3, duration=5.0))
    assert result.transmitted > 20
    assert server.connections_served == 3


def test_connection_per_call_mode():
    net, client, server = build_world()
    tester = SimRampTester(net, client, "server", 80, "/echo", closing_requests)
    result = tester.run(SimRampConfig(clients=3, duration=5.0))
    assert result.transmitted > 10
    # one connection per call (give or take the last in-flight ones)
    assert server.connections_served >= result.transmitted

def test_keep_alive_is_faster_than_reconnecting():
    net1, client1, _ = build_world()
    with_ka = SimRampTester(net1, client1, "server", 80, "/echo").run(
        SimRampConfig(clients=2, duration=5.0)
    )
    net2, client2, _ = build_world()
    without_ka = SimRampTester(net2, client2, "server", 80, "/echo", closing_requests).run(
        SimRampConfig(clients=2, duration=5.0)
    )
    # reconnecting pays an extra handshake RTT per call
    assert with_ka.transmitted > without_ka.transmitted * 1.2


def test_latency_statistics_populated():
    net, client, _ = build_world()
    result = SimRampTester(net, client, "server", 80, "/echo").run(
        SimRampConfig(clients=1, duration=3.0)
    )
    assert result.latency.count == result.transmitted
    assert 0.01 < result.latency.mean < 1.0
    assert result.latency.min <= result.latency.mean <= result.latency.max

"""Tests for HTTP over the simulated transport."""

import pytest

from repro.http import HttpRequest, HttpResponse
from repro.simnet.httpsim import (
    SimHttpClientPool,
    SimHttpServer,
    sim_http_request,
)
from repro.simnet.scenarios import BACKBONE_IU, INRIA, make_network
from repro.simnet.topology import AccessLink, Network


@pytest.fixture
def world(sim):
    net = Network(sim)
    client = net.add_host("client", AccessLink(5000, 5000, 0.005))
    server = net.add_host("server", AccessLink(5000, 5000, 0.005))
    return net, client, server


def echo_handler(request: HttpRequest) -> HttpResponse:
    return HttpResponse(200, body=request.body or request.target.encode())


class TestSimHttpServer:
    def test_request_response(self, world):
        net, client, server_host = world
        sim = net.sim
        SimHttpServer(net, server_host, 80, echo_handler)

        def client_proc():
            req = HttpRequest("POST", "/x", body=b"ping")
            resp = yield from sim_http_request(net, client, "server", 80, req)
            return resp

        resp = sim.run(sim.process(client_proc()))
        assert resp.status == 200 and resp.body == b"ping"

    def test_generator_handler(self, world):
        net, client, server_host = world
        sim = net.sim

        def slow_handler(request):
            yield sim.timeout(0.5)
            return HttpResponse(200, body=b"slow")

        SimHttpServer(net, server_host, 80, slow_handler)

        def client_proc():
            resp = yield from sim_http_request(
                net, client, "server", 80, HttpRequest("GET", "/")
            )
            return (sim.now, resp.body)

        now, body = sim.run(sim.process(client_proc()))
        assert body == b"slow" and now >= 0.5

    def test_service_time_scales_with_host_speed(self, world):
        net, client, server_host = world
        sim = net.sim
        server_host.cpu_factor = 10.0
        SimHttpServer(net, server_host, 80, echo_handler, service_time=0.05)

        def client_proc():
            yield from sim_http_request(
                net, client, "server", 80, HttpRequest("GET", "/")
            )
            return sim.now

        assert sim.run(sim.process(client_proc())) >= 0.5

    def test_worker_pool_limits_concurrency(self, world):
        net, client, server_host = world
        sim = net.sim

        def slow(request):
            yield sim.timeout(1.0)
            return HttpResponse(200)

        SimHttpServer(net, server_host, 80, slow, workers=1)
        finishes = []

        def one_call(i):
            yield from sim_http_request(
                net, client, "server", 80, HttpRequest("GET", f"/{i}")
            )
            finishes.append(sim.now)

        for i in range(3):
            sim.process(one_call(i))
        sim.run()
        assert finishes[-1] >= 3.0  # serialized by the single worker

    def test_keep_alive_on_one_connection(self, world):
        net, client, server_host = world
        sim = net.sim
        server = SimHttpServer(net, server_host, 80, echo_handler)
        pool = SimHttpClientPool(net, client)

        def client_proc():
            for i in range(3):
                resp = yield from pool.exchange(
                    "server", 80, HttpRequest("POST", "/", body=b"%d" % i)
                )
                assert resp.ok
            return (pool.fresh_connects, pool.reuses)

        fresh, reuses = sim.run(sim.process(client_proc()))
        assert fresh == 1 and reuses == 2
        assert server.connections_served == 1
        assert server.requests_served == 3

    def test_stop_closes_listener(self, world):
        net, client, server_host = world
        sim = net.sim
        server = SimHttpServer(net, server_host, 80, echo_handler)
        server.stop()

        def client_proc():
            try:
                yield from sim_http_request(
                    net, client, "server", 80, HttpRequest("GET", "/"),
                    connect_timeout=1.0,
                )
            except Exception as exc:
                return type(exc).__name__

        assert sim.run(sim.process(client_proc())) in (
            "ConnectionRefused",
            "ConnectionTimeout",
        )


class TestScenarios:
    def test_make_network_builds_hosts(self):
        sim, net, hosts = make_network(BACKBONE_IU, INRIA)
        assert hosts["iuHigh"].firewall.inbound_open
        assert not hosts["inria"].firewall.inbound_open
        assert hosts["inria"].link.up.rate_bps == pytest.approx(1_262_000)

    def test_transatlantic_rtt_realistic(self):
        sim, net, hosts = make_network(BACKBONE_IU, INRIA)
        rtt = 2 * net.propagation(hosts["iuHigh"], hosts["inria"])
        assert 0.1 <= rtt <= 0.15

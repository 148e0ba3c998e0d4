"""Tests for the simulated HTTP connection pool's failure handling."""

import pytest

from repro.errors import ConnectionRefused
from repro.http import HttpRequest, HttpResponse
from repro.simnet.httpsim import SimHttpClientPool, SimHttpServer
from repro.simnet.topology import AccessLink, Network


@pytest.fixture
def world(sim):
    net = Network(sim)
    link = AccessLink(5000, 5000, 0.005)
    client = net.add_host("client", link)
    server = net.add_host("server", link)
    return net, client, server


def test_stale_pooled_connection_retried(world):
    """A server restart invalidates pooled connections; the pool recovers."""
    net, client, server_host = world
    sim = net.sim
    server = SimHttpServer(
        net, server_host, 80, lambda r: HttpResponse(200, body=b"v1")
    )
    pool = SimHttpClientPool(net, client)
    results = []

    def scenario():
        resp = yield from pool.exchange("server", 80, HttpRequest("GET", "/"))
        results.append(resp.body)
        # restart: old connections die, a new server appears on the port
        server.stop()
        for conns in pool._pools.values():
            for conn in conns:
                conn.close()  # the server's closure propagates as EOF
        SimHttpServer(net, server_host, 80, lambda r: HttpResponse(200, body=b"v2"))
        resp = yield from pool.exchange("server", 80, HttpRequest("GET", "/"))
        results.append(resp.body)

    sim.run(sim.process(scenario()))
    assert results == [b"v1", b"v2"]


def test_fresh_connect_failure_propagates(world):
    net, client, server_host = world
    sim = net.sim
    pool = SimHttpClientPool(net, client, connect_timeout=0.5)

    def scenario():
        try:
            yield from pool.exchange("server", 80, HttpRequest("GET", "/"))
        except ConnectionRefused:
            return "refused"

    assert sim.run(sim.process(scenario())) == "refused"


def test_close_all_empties_pool(world):
    net, client, server_host = world
    sim = net.sim
    SimHttpServer(net, server_host, 80, lambda r: HttpResponse(200))
    pool = SimHttpClientPool(net, client)

    def scenario():
        yield from pool.exchange("server", 80, HttpRequest("GET", "/"))
        assert sum(len(v) for v in pool._pools.values()) == 1
        pool.close_idle()
        assert sum(len(v) for v in pool._pools.values()) == 0

    sim.run(sim.process(scenario()))


def test_connection_close_response_not_pooled(world):
    net, client, server_host = world
    sim = net.sim

    def handler(request):
        resp = HttpResponse(200, body=b"bye")
        resp.headers.set("Connection", "close")
        return resp

    SimHttpServer(net, server_host, 80, handler)
    pool = SimHttpClientPool(net, client)

    def scenario():
        yield from pool.exchange("server", 80, HttpRequest("GET", "/"))
        return sum(len(v) for v in pool._pools.values())

    assert sim.run(sim.process(scenario())) == 0


def test_pool_reuse_counters(world):
    net, client, server_host = world
    sim = net.sim
    SimHttpServer(net, server_host, 80, lambda r: HttpResponse(200))
    pool = SimHttpClientPool(net, client)

    def scenario():
        for _ in range(5):
            yield from pool.exchange("server", 80, HttpRequest("GET", "/"))

    sim.run(sim.process(scenario()))
    assert pool.fresh_connects == 1
    assert pool.reuses == 4

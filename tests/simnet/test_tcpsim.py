"""Tests for the simulated TCP layer and firewall interactions."""

import pytest

from repro.errors import (
    ConnectionClosed,
    ConnectionLimitExceeded,
    ConnectionRefused,
    ConnectionTimeout,
)
from repro.simnet.firewall import FirewallPolicy
from repro.simnet.tcpsim import TcpParams, connect, listen
from repro.simnet.topology import AccessLink, Network


@pytest.fixture
def world(sim):
    net = Network(sim)
    client = net.add_host("client", AccessLink(2000, 2000, 0.010))
    server = net.add_host("server", AccessLink(2000, 2000, 0.010))
    return net, client, server


def run_proc(sim, gen):
    return sim.run(sim.process(gen))


class TestConnect:
    def test_established_connection_carries_data(self, world):
        net, client, server = world
        sim = net.sim
        listener = listen(sim, server, 80)
        results = {}

        def server_proc():
            conn = yield listener.accept()
            data = yield from conn.recv()
            yield from conn.send(data.upper())
            conn.close()

        def client_proc():
            conn = yield from connect(net, client, "server", 80)
            yield from conn.send(b"hello")
            results["reply"] = yield from conn.recv(timeout=5)
            conn.close()

        sim.process(server_proc())
        sim.run(sim.process(client_proc()))
        assert results["reply"] == b"HELLO"

    def test_handshake_takes_roughly_one_rtt(self, world):
        net, client, server = world
        sim = net.sim
        listen(sim, server, 80)

        def client_proc():
            yield from connect(net, client, "server", 80)
            return sim.now

        elapsed = run_proc(sim, client_proc())
        assert 0.02 <= elapsed <= 0.06  # RTT 40ms + serialization

    def test_refused_when_no_listener(self, world):
        net, client, server = world

        def client_proc():
            try:
                yield from connect(net, client, "server", 9999)
            except ConnectionRefused:
                return "refused"

        assert run_proc(net.sim, client_proc()) == "refused"

    def test_firewall_drop_burns_connect_timeout(self, world):
        net, client, server = world
        server.firewall = FirewallPolicy.outbound_only()
        listen(net.sim, server, 80)

        def client_proc():
            try:
                yield from connect(
                    net, client, "server", 80, TcpParams(connect_timeout=3.0)
                )
            except ConnectionTimeout:
                return net.sim.now

        assert run_proc(net.sim, client_proc()) == pytest.approx(3.0, abs=0.1)

    def test_firewall_open_port_admits(self, world):
        net, client, server = world
        server.firewall = FirewallPolicy.outbound_only(open_ports=(80,))
        listen(net.sim, server, 80)

        def client_proc():
            conn = yield from connect(net, client, "server", 80)
            return conn is not None

        assert run_proc(net.sim, client_proc()) is True

    def test_client_connection_table_exhaustion(self, world):
        net, client, server = world
        client.max_connections = 1
        listen(net.sim, server, 80)

        def client_proc():
            yield from connect(net, client, "server", 80)
            try:
                yield from connect(net, client, "server", 80)
            except ConnectionLimitExceeded:
                return "limit"

        assert run_proc(net.sim, client_proc()) == "limit"

    def test_server_connection_table_exhaustion_times_out(self, world):
        net, client, server = world
        server.max_connections = 1
        listen(net.sim, server, 80)

        def client_proc():
            yield from connect(net, client, "server", 80)
            try:
                yield from connect(
                    net, client, "server", 80, TcpParams(connect_timeout=2.0)
                )
            except ConnectionTimeout as exc:
                return str(exc)

        msg = run_proc(net.sim, client_proc())
        assert "connection table full" in msg

    def test_failed_connect_releases_client_slot(self, world):
        net, client, server = world

        def client_proc():
            try:
                yield from connect(net, client, "server", 9999)
            except ConnectionRefused:
                pass

        run_proc(net.sim, client_proc())
        assert client.active_connections == 0

    def test_close_releases_both_slots(self, world):
        net, client, server = world
        sim = net.sim
        listener = listen(sim, server, 80)

        def server_proc():
            conn = yield listener.accept()
            yield from conn.recv()
            conn.close()

        def client_proc():
            conn = yield from connect(net, client, "server", 80)
            yield from conn.send(b"x")
            yield from conn.recv(timeout=5)  # EOF
            conn.close()

        sim.process(server_proc())
        sim.run(sim.process(client_proc()))
        sim.run()
        assert client.active_connections == 0
        assert server.active_connections == 0


class TestDataPath:
    def test_recv_timeout(self, world):
        net, client, server = world
        sim = net.sim
        listen(sim, server, 80)

        def client_proc():
            conn = yield from connect(net, client, "server", 80)
            try:
                yield from conn.recv(timeout=1.0)
            except ConnectionTimeout:
                return sim.now

        assert run_proc(sim, client_proc()) == pytest.approx(1.0, abs=0.1)

    def test_send_on_closed_connection(self, world):
        net, client, server = world
        sim = net.sim
        listen(sim, server, 80)

        def client_proc():
            conn = yield from connect(net, client, "server", 80)
            conn.close()
            try:
                yield from conn.send(b"x")
            except ConnectionClosed:
                return "closed"

        assert run_proc(sim, client_proc()) == "closed"

    def test_eof_is_sticky(self, world):
        net, client, server = world
        sim = net.sim
        listener = listen(sim, server, 80)

        def server_proc():
            conn = yield listener.accept()
            conn.close()

        def client_proc():
            conn = yield from connect(net, client, "server", 80)
            first = yield from conn.recv(timeout=5)
            second = yield from conn.recv(timeout=5)
            return (first, second)

        sim.process(server_proc())
        assert sim.run(sim.process(client_proc())) == (b"", b"")

    def test_transfer_time_scales_with_size(self, world):
        net, client, server = world
        sim = net.sim
        listener = listen(sim, server, 80)

        def server_proc():
            conn = yield listener.accept()
            yield from conn.recv()

        def client_proc():
            conn = yield from connect(net, client, "server", 80)
            t0 = sim.now
            yield from conn.send(b"x" * 25_000)  # 200 kbit over 2 Mbps ≈ 0.1s x2
            return sim.now - t0

        sim.process(server_proc())
        elapsed = sim.run(sim.process(client_proc()))
        assert elapsed == pytest.approx(0.22, abs=0.05)


def test_firewall_policy_counters():
    fw = FirewallPolicy.outbound_only()
    assert not fw.admits_inbound("x", 80)
    assert fw.dropped == 1
    fw2 = FirewallPolicy.outbound_only(allowed_sources=("friend",))
    assert fw2.admits_inbound("friend", 9999)

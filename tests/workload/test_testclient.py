"""Tests for the simulated ramp test client."""

import pytest

from repro.rt.service import SoapHttpApp
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.kernel import Simulator
from repro.simnet.topology import AccessLink, Network
from repro.workload.echo import EchoService
from repro.workload.sim_testclient import SimRampConfig, SimRampTester


class TestSimRampClient:
    @pytest.fixture
    def world(self, sim):
        net = Network(sim)
        client = net.add_host("client", AccessLink(5000, 5000, 0.005))
        server = net.add_host("server", AccessLink(5000, 5000, 0.005))
        app = SoapHttpApp()
        app.mount("/echo", EchoService())
        SimHttpServer(net, server, 80, lambda r: app.handle_request(r, None))
        return net, client

    def test_run_counts_transmissions(self, world):
        net, client = world
        tester = SimRampTester(net, client, "server", 80, "/echo")
        result = tester.run(SimRampConfig(clients=2, duration=5.0))
        assert result.transmitted > 10
        assert result.not_sent == 0
        assert result.latency.mean > 0

    def test_simulated_time_not_wall_time(self, world):
        import time

        net, client = world
        tester = SimRampTester(net, client, "server", 80, "/echo")
        t0 = time.monotonic()
        result = tester.run(SimRampConfig(clients=1, duration=60.0))
        assert time.monotonic() - t0 < 30.0  # 60 sim-seconds far faster than real
        assert result.transmitted > 100

    def test_think_time_slows_clients(self, world):
        net, client = world
        fast = SimRampTester(net, client, "server", 80, "/echo").run(
            SimRampConfig(clients=1, duration=5.0)
        )
        net2_sim = Simulator()
        net2 = Network(net2_sim)
        c2 = net2.add_host("client", AccessLink(5000, 5000, 0.005))
        s2 = net2.add_host("server", AccessLink(5000, 5000, 0.005))
        app = SoapHttpApp()
        app.mount("/echo", EchoService())
        SimHttpServer(net2, s2, 80, lambda r: app.handle_request(r, None))
        slow = SimRampTester(net2, c2, "server", 80, "/echo").run(
            SimRampConfig(clients=1, duration=5.0, think_time=0.5)
        )
        assert slow.transmitted < fast.transmitted / 2

    def test_unreachable_server_counts_not_sent(self, sim):
        net = Network(sim)
        client = net.add_host("client", AccessLink(5000, 5000, 0.005))
        net.add_host("server", AccessLink(5000, 5000, 0.005))
        tester = SimRampTester(net, client, "server", 80, "/echo")
        result = tester.run(
            SimRampConfig(clients=1, duration=3.0, connect_timeout=0.5,
                          retry_backoff=0.1)
        )
        assert result.transmitted == 0
        assert result.not_sent >= 3

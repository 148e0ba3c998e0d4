"""Tests for hosts, pipes, links, and the network fabric."""

import pytest

from repro.errors import SimulationError
from repro.simnet.topology import AccessLink, Network, Pipe


@pytest.fixture
def two_hosts(sim):
    net = Network(sim)
    a = net.add_host("a", AccessLink(down_kbps=1000, up_kbps=1000, latency=0.010))
    b = net.add_host("b", AccessLink(down_kbps=1000, up_kbps=500, latency=0.020))
    return net, a, b


class TestPipe:
    def test_single_transfer_time(self, sim):
        pipe = Pipe(sim, rate_bps=8000)  # 1000 bytes/s

        def proc():
            yield sim.timeout(pipe.reserve(500))
            return sim.now

        assert sim.run(sim.process(proc())) == pytest.approx(0.5)

    def test_fifo_queueing(self, sim):
        pipe = Pipe(sim, rate_bps=8000)
        done = []

        def sender(tag, size):
            yield sim.timeout(pipe.reserve(size))
            done.append((tag, sim.now))

        sim.process(sender("first", 1000))
        sim.process(sender("second", 1000))
        sim.run()
        assert done == [("first", pytest.approx(1.0)), ("second", pytest.approx(2.0))]

    def test_counters(self, sim):
        pipe = Pipe(sim, rate_bps=8000)
        pipe.reserve(10)
        pipe.reserve(20)
        assert pipe.bytes_carried == 30
        assert pipe.transfers == 2

    def test_invalid_rate(self, sim):
        with pytest.raises(SimulationError):
            Pipe(sim, rate_bps=0)

    def test_negative_bytes(self, sim):
        with pytest.raises(SimulationError):
            Pipe(sim, rate_bps=1).reserve(-1)


class TestHost:
    def test_connection_accounting(self, two_hosts):
        _, a, _ = two_hosts
        a.max_connections = 2
        assert a.try_acquire_connection()
        assert a.try_acquire_connection()
        assert not a.try_acquire_connection()
        assert a.refused_connections == 1
        a.release_connection()
        assert a.try_acquire_connection()

    def test_release_underflow_detected(self, two_hosts):
        _, a, _ = two_hosts
        with pytest.raises(SimulationError):
            a.release_connection()

    def test_compute_scales_with_cpu_factor(self, sim):
        net = Network(sim)
        slow = net.add_host(
            "slow", AccessLink(1000, 1000, 0.01), cpu_factor=4.0
        )

        def proc():
            yield slow.compute(0.1)
            return sim.now

        assert sim.run(sim.process(proc())) == pytest.approx(0.4)


class TestNetwork:
    def test_duplicate_host_rejected(self, two_hosts):
        net, _, _ = two_hosts
        with pytest.raises(SimulationError):
            net.add_host("a", AccessLink(1, 1, 0.001))

    def test_unknown_host_rejected(self, two_hosts):
        net, _, _ = two_hosts
        with pytest.raises(SimulationError):
            net.host("ghost")

    def test_propagation_sums_latencies(self, two_hosts):
        net, a, b = two_hosts
        assert net.propagation(a, b) == pytest.approx(0.030)

    def test_loopback_propagation_tiny(self, two_hosts):
        net, a, _ = two_hosts
        assert net.propagation(a, a) < 0.001

    def test_transfer_time_includes_both_pipes(self, two_hosts):
        net, a, b = two_hosts
        sim = net.sim

        # 1000 bytes: up a @1000kbps = 8ms, prop 30ms, down b @1000kbps = 8ms
        def proc():
            yield net.transfer(a, b, 1000)
            return sim.now

        assert sim.run(sim.process(proc())) == pytest.approx(0.046, abs=1e-3)

    def test_asymmetric_direction_matters(self, two_hosts):
        net, a, b = two_hosts
        sim = net.sim

        # b's uplink is 500kbps: 1000 bytes up = 16ms
        def proc():
            yield net.transfer(b, a, 1000)
            return sim.now

        assert sim.run(sim.process(proc())) == pytest.approx(0.054, abs=1e-3)

    def test_same_host_transfer_bypasses_link(self, two_hosts):
        net, a, _ = two_hosts
        sim = net.sim

        def proc():
            yield net.transfer(a, a, 10_000_000)
            return sim.now

        assert sim.run(sim.process(proc())) < 0.01
        assert a.link.up.bytes_carried == 0

    def test_concurrent_transfers_share_uplink(self, two_hosts):
        net, a, b = two_hosts
        sim = net.sim
        done = []

        def send(tag):
            yield net.transfer(a, b, 12_500)  # 100 kbit = 0.1s at 1 Mbps
            done.append((tag, sim.now))

        sim.process(send("x"))
        sim.process(send("y"))
        sim.run()
        # serialized on a's uplink: second finishes ~0.1s after the first
        assert done[1][1] - done[0][1] == pytest.approx(0.1, abs=0.02)

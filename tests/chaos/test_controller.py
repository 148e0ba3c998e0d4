"""ChaosController behaviour against a simulated network."""

import pytest

from repro.chaos import (
    AddedLatency,
    ChaosController,
    FaultPlan,
    LinkDown,
    PacketLoss,
    RegistryOutage,
    ServiceCrash,
    SlowResponder,
    ServiceStop,
)
from repro.core.registry import ServiceRegistry
from repro.errors import ConnectionRefused, RegistryUnavailable, SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.kernel import Simulator
from repro.simnet.tcpsim import connect
from repro.simnet.topology import AccessLink, Network


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a", AccessLink(2000, 2000, 0.010))
    b = net.add_host("b", AccessLink(2000, 2000, 0.010))
    return sim, net, a, b


def test_packet_loss_window_sets_and_restores(world):
    sim, net, a, b = world
    plan = FaultPlan((PacketLoss("a", at=1.0, duration=2.0, rate=0.25),))
    ChaosController(net, plan).start()
    observed = {}

    def watcher():
        yield sim.timeout(1.5)
        observed["during"] = a.link.loss
        yield sim.timeout(2.0)
        observed["after"] = a.link.loss

    sim.run(sim.process(watcher()))
    assert observed == {"during": 0.25, "after": 0.0}


def test_crash_and_restart_toggles_host(world):
    sim, net, a, b = world
    epoch_before = a.epoch
    plan = FaultPlan((ServiceCrash("a", at=1.0, restart_after=3.0),))
    ChaosController(net, plan).start()
    observed = {}

    def watcher():
        yield sim.timeout(2.0)
        observed["during"] = a.failed
        yield sim.timeout(3.0)
        observed["after"] = a.failed

    sim.run(sim.process(watcher()))
    assert observed == {"during": True, "after": False}
    # the reboot bumps the epoch, so pre-crash connections read as stale
    assert a.epoch == epoch_before + 1


def test_link_down_stalls_transfer_until_window_ends(world):
    sim, net, a, b = world
    plan = FaultPlan((LinkDown("b", at=0.0, duration=5.0),))
    ChaosController(net, plan).start()

    def xfer():
        yield net.transfer(a, b, 100)
        return sim.now

    done_at = sim.run(sim.process(xfer()))
    assert done_at >= 5.0
    assert b.link.stalled_transfers == 1


def test_added_latency_delays_transfer(world):
    sim, net, a, b = world
    plan = FaultPlan((AddedLatency("b", at=0.0, duration=10.0, extra=0.5),))
    ChaosController(net, plan).start()

    def xfer():
        t0 = sim.now
        yield net.transfer(a, b, 100)
        return sim.now - t0

    elapsed = sim.run(sim.process(xfer()))
    assert elapsed >= 0.5


def test_slow_responder_scales_cpu_factor(world):
    sim, net, a, b = world
    plan = FaultPlan((SlowResponder("a", at=1.0, duration=2.0, factor=4.0),))
    ChaosController(net, plan).start()
    observed = {}

    def watcher():
        yield sim.timeout(2.0)
        observed["during"] = a.cpu_factor
        yield sim.timeout(2.0)
        observed["after"] = a.cpu_factor

    sim.run(sim.process(watcher()))
    assert observed == {"during": 4.0, "after": 1.0}


def test_registry_outage_window(world):
    sim, net, a, b = world
    registry = ServiceRegistry()
    registry.register("svc", "http://b:80/svc")
    plan = FaultPlan((RegistryOutage(at=1.0, duration=2.0),))
    ChaosController(net, plan, registry=registry).start()
    observed = {}

    def watcher():
        yield sim.timeout(2.0)
        try:
            registry.lookup("svc")
            observed["during"] = "ok"
        except RegistryUnavailable:
            observed["during"] = "down"
        yield sim.timeout(2.0)
        observed["after"] = registry.lookup("svc").logical

    sim.run(sim.process(watcher()))
    assert observed["during"] == "down"
    assert observed["after"] == "svc"


def test_registry_outage_requires_registry(world):
    sim, net, a, b = world
    plan = FaultPlan((RegistryOutage(at=0.0, duration=1.0),))
    with pytest.raises(SimulationError):
        ChaosController(net, plan).start()


def test_service_stop_requires_known_server(world):
    sim, net, a, b = world
    plan = FaultPlan((ServiceStop("a", port=80, at=0.0, duration=1.0),))
    with pytest.raises(SimulationError):
        ChaosController(net, plan).start()


def test_service_stop_refuses_connects_for_its_window(world):
    sim, net, a, b = world
    server = SimHttpServer(net, b, 80, lambda request: None)
    plan = FaultPlan((ServiceStop("b", port=80, at=1.0, duration=2.0),))
    ChaosController(net, plan, servers=[server]).start()
    observed = {}

    def attempt():
        try:
            conn = yield from connect(net, a, "b", 80)
        except ConnectionRefused:
            return "refused"
        conn.close()
        return "accepted"

    def watcher():
        yield sim.timeout(1.5)
        observed["during"] = yield from attempt()
        yield sim.timeout(2.0)
        observed["after"] = yield from attempt()

    sim.run(sim.process(watcher()))
    assert observed == {"during": "refused", "after": "accepted"}


def test_injection_metrics_and_counts(world):
    sim, net, a, b = world
    metrics = MetricsRegistry()
    plan = FaultPlan((
        PacketLoss("a", at=0.0, duration=1.0, rate=0.5),
        ServiceCrash("b", at=0.5, restart_after=1.0),
    ))
    controller = ChaosController(net, plan, metrics=metrics)
    controller.start()
    controller.start()  # idempotent
    sim.run(until=10.0)
    assert controller.injected == 2
    rendered = metrics.render_prometheus()
    assert 'chaos_faults_injected_total{kind="PacketLoss"} 1' in rendered
    assert 'chaos_faults_injected_total{kind="ServiceCrash"} 1' in rendered
    assert "chaos_faults_active 0" in rendered

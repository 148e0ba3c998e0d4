"""Anti-entropy gossip: wire validation, the HTTP endpoint, per-peer
health accounting, and full simulated-network convergence."""

import pytest

from repro.core.registry import ServiceRegistry
from repro.http import HttpRequest
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.registry import (
    GOSSIP_PATH,
    GossipHandler,
    SimGossipPeer,
    sync_pair,
)
from repro.registry.gossip import (
    GossipHealth,
    decode_gossip,
    drive_round,
    encode_gossip,
    make_gossip_request,
)
from repro.simnet.kernel import Simulator
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.scenarios import BACKBONE_IU, add_site
from repro.simnet.topology import Network


# -- wire codec -------------------------------------------------------------
@pytest.mark.parametrize("body", [
    b"[]",                                   # not an object
    b'{"vv": {}}',                           # missing peer
    b'{"peer": "", "vv": {}}',               # empty peer
    b'{"peer": "a"}',                        # missing vv
    b'{"peer": "a", "vv": {"b": "x"}}',      # non-int lamport
    b'{"peer": "a", "vv": {}, "entries": 1}',  # entries not a list
])
def test_decode_gossip_rejects_malformed(body):
    with pytest.raises(ValueError):
        decode_gossip(body)


# -- the HTTP endpoint ------------------------------------------------------
def _counter(metrics, outcome):
    return metrics.counter(
        "registry_gossip_requests_total",
        "gossip exchanges served, by outcome",
    ).labels(outcome=outcome).get()


def test_handler_status_codes():
    metrics = MetricsRegistry()
    replica = ServiceRegistry(peer_id="srv")
    handler = GossipHandler(replica, metrics=metrics)

    assert handler(HttpRequest("GET", GOSSIP_PATH)).status == 405
    assert handler(
        HttpRequest("POST", GOSSIP_PATH, body=b"not json")
    ).status == 400
    assert _counter(metrics, "bad") == 1

    replica.set_available(False)
    digest = make_gossip_request({"peer": "x", "vv": {}})
    assert handler(digest).status == 503
    assert _counter(metrics, "refused") == 1

    replica.set_available(True)
    response = handler(digest)
    assert response.status == 200
    assert _counter(metrics, "ok") == 1
    reply = decode_gossip(response.body)
    assert reply["peer"] == "srv"


def test_round_over_http_handler_converges_both_ways():
    """A full initiator round driven through the HTTP endpoint reaches
    the same fixpoint as the in-process sync_pair."""
    a, b = ServiceRegistry(peer_id="a"), ServiceRegistry(peer_id="b")
    a.register("only-a", "http://h:1/a")
    b.register("only-b", "http://h:2/b")
    handler = GossipHandler(b, metrics=MetricsRegistry())

    def post(payload):
        response = handler(make_gossip_request(payload))
        assert response.status == 200
        return decode_gossip(response.body)

    converged, applied = drive_round(a, post)
    assert converged
    assert applied == 1
    assert a.vv == b.vv
    assert [r.logical for r in a.list_services()] == ["only-a", "only-b"]
    assert [r.logical for r in b.list_services()] == ["only-a", "only-b"]


# -- health accounting ------------------------------------------------------
def test_health_emits_down_rejoin_and_converged_edges():
    flight = FlightRecorder()
    health = GossipHealth(
        "me", ["peer"], metrics=MetricsRegistry(), flight=flight,
        now_fn=lambda: 42.0,
    )
    # repeated failures record a single down edge
    health.note_fail("peer")
    health.note_fail("peer")
    assert flight.counts_by_kind().get("replica-down") == 1
    assert health.snapshot()["peer"]["up"] is False

    # the first success after a failure is the rejoin edge; convergence
    # fires its own event only on the divergent->converged transition
    health.note_ok("peer", converged=False, applied=3)
    health.note_ok("peer", converged=True, applied=0)
    health.note_ok("peer", converged=True, applied=0)
    counts = flight.counts_by_kind()
    assert counts.get("replica-rejoin") == 1
    assert counts.get("gossip-converged") == 1

    snap = health.snapshot()["peer"]
    assert snap["up"] and snap["converged"]
    assert snap["rounds"] == 3
    assert snap["failures"] == 2


def test_health_lag_gauge_tracks_last_success():
    clock = {"now": 10.0}
    metrics = MetricsRegistry()
    health = GossipHealth(
        "me", ["peer"], metrics=metrics, flight=FlightRecorder(),
        now_fn=lambda: clock["now"],
    )
    health.note_ok("peer", converged=True, applied=0)
    clock["now"] = 17.5
    assert health.snapshot()["peer"]["lag_seconds"] == pytest.approx(7.5)


# -- simulated-network anti-entropy ----------------------------------------
def test_sim_gossip_peers_converge_cluster():
    """Three replicas on the simulated backbone: a write landing on one
    reaches all of them within a few anti-entropy intervals."""
    sim = Simulator()
    net = Network(sim, loss_seed=5)
    metrics = MetricsRegistry()
    flight = FlightRecorder()
    names = ("r1", "r2", "r3")
    port = 7000

    hosts = {
        n: add_site(net, BACKBONE_IU, name=n, open_ports=(port,))
        for n in names
    }
    replicas = {n: ServiceRegistry(peer_id=n, metrics=metrics) for n in names}
    for n in names:
        SimHttpServer(
            net, hosts[n], port, GossipHandler(replicas[n], metrics=metrics),
            workers=2, service_time=0.0005,
        )
    peers = {
        n: SimGossipPeer(
            net, hosts[n], replicas[n],
            {p: (p, port) for p in names if p != n},
            interval=0.5, seed=5 + i, metrics=metrics, flight=flight,
        ).start()
        for i, n in enumerate(names)
    }

    def writer():
        yield sim.timeout(0.1)
        replicas["r1"].register("svc", "http://sink:9000/svc")

    sim.process(writer(), name="writer")
    sim.run(until=6.0)

    for n in names:
        assert replicas[n].lookup("svc").physical == ["http://sink:9000/svc"]
    vvs = [replicas[n].vv for n in names]
    assert vvs[0] == vvs[1] == vvs[2]
    assert flight.counts_by_kind().get("gossip-converged", 0) >= 3
    for n in names:
        for peer_snap in peers[n].health.snapshot().values():
            assert peer_snap["up"]
            assert peer_snap["failures"] == 0


def test_idempotent_round_after_convergence():
    a, b = ServiceRegistry(peer_id="a"), ServiceRegistry(peer_id="b")
    a.register("svc", "http://h:1/svc")
    sync_pair(a, b)
    # wire bytes are stable too: the same digest encodes identically
    assert encode_gossip(a.digest()) == encode_gossip(a.digest())
    converged, applied = sync_pair(a, b)
    assert converged
    assert applied == 0

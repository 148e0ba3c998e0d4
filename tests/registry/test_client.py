"""ReplicatedRegistryClient: the one failover sweep, staleness bias,
writes, and drop-in use as a dispatcher registry."""

import time

import pytest

from repro.core.msg_dispatcher import MsgDispatcherConfig
from repro.core.registry import ServiceRegistry
from repro.errors import (
    RegistryError,
    RegistryUnavailable,
    UnknownServiceError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.registry import ReplicatedRegistryClient, sync_pair
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message
from repro.rt.service import RequestContext
from tests.core.test_dispatcher_robustness import FakeClient, wait_for

SEED = 7


def make_cluster(n=3, registered=("echo",)):
    replicas = {
        f"r{i}": ServiceRegistry(peer_id=f"r{i}", metrics=MetricsRegistry())
        for i in range(1, n + 1)
    }
    first = next(iter(replicas.values()))
    for logical in registered:
        first.register(logical, f"http://ws:9000/{logical}")
    others = [r for r in replicas.values() if r is not first]
    for other in others:
        sync_pair(first, other)
    return replicas


def make_client(replicas, **kwargs):
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault("metrics", MetricsRegistry())
    return ReplicatedRegistryClient(replicas, **kwargs)


def failover_count(client):
    return client.metrics.counter(
        "registry_client_failover_total",
        "lookup attempts that skipped past a failed replica",
    ).labels().get()


def test_lookup_fails_over_past_unavailable_replica():
    replicas = make_cluster()
    client = make_client(replicas)
    replicas[client.replica_names[0]].set_available(False)
    # every sweep asks the dark first preference, counts it, and moves on
    for n in range(1, 4):
        assert client.lookup("echo").physical == ["http://ws:9000/echo"]
        assert failover_count(client) == n


def test_sweep_rides_out_stale_replica_answering_unknown():
    """A reachable replica that answers "unknown" must not end the sweep:
    a peer that has converged further may still know the name."""
    replicas = make_cluster(registered=())
    client = make_client(replicas)
    # only the *last*-preference replica knows the service (the others
    # are healthy but stale, e.g. freshly restarted from a journal)
    straggler = client.replica_names[-1]
    replicas[straggler].register("late", "http://ws:9000/late")
    assert client.lookup("late").physical == ["http://ws:9000/late"]
    # stale answers are healthy answers: no failover
    assert failover_count(client) == 0


def no_sleep(monkeypatch):
    def forbidden(seconds):
        raise AssertionError(f"the client slept {seconds} s")

    monkeypatch.setattr(time, "sleep", forbidden)


def test_unknown_everywhere_is_authoritative_no_retry_passes(monkeypatch):
    no_sleep(monkeypatch)
    client = make_client(make_cluster(registered=()))
    with pytest.raises(UnknownServiceError):
        client.lookup("ghost")


def test_all_replicas_down_raises_registry_unavailable(monkeypatch):
    """One sweep and no wait: the caller (a dispatcher parking under
    ``hold+resolve:``) owns the retry."""
    no_sleep(monkeypatch)
    replicas = make_cluster()
    for replica in replicas.values():
        replica.set_available(False)
    client = make_client(replicas)
    with pytest.raises(RegistryUnavailable):
        client.lookup("echo")
    assert failover_count(client) == 3  # one pass x 3 replicas


def test_bad_request_raises_immediately_without_failover():
    client = make_client(make_cluster())
    with pytest.raises(RegistryError):
        client.register("", "http://ws:9000/x")
    assert failover_count(client) == 0


def test_a_write_through_the_client_is_what_its_next_lookup_returns():
    client = make_client(make_cluster())
    assert client.lookup("echo").physical == ["http://ws:9000/echo"]
    client.register("echo", "http://ws:9001/echo-v2")
    assert client.lookup("echo").physical == ["http://ws:9001/echo-v2"]


def test_writes_propagate_to_peers_via_gossip():
    replicas = make_cluster(registered=())
    client = make_client(replicas)
    client.register("svc", "http://ws:9000/svc")
    first = client.replica_names[0]
    names = list(replicas)
    for name in names:
        sync_pair(replicas[first], replicas[name])
    for name in names:
        assert replicas[name].lookup("svc").physical == ["http://ws:9000/svc"]
    client.unregister("svc")
    for name in names:
        sync_pair(replicas[first], replicas[name])
    for name in names:
        with pytest.raises(UnknownServiceError):
            replicas[name].lookup("svc")


def test_health_snapshot_lists_every_replica():
    replicas = make_cluster()
    client = make_client(replicas)
    client.lookup("echo")
    down = client.replica_names[1]
    replicas[down].set_available(False)
    snap = client.health_snapshot()
    assert snap["order"] == client.replica_names
    assert set(snap["replicas"]) == set(replicas)
    for name, entry in snap["replicas"].items():
        assert entry["available"] is (name != down)
    assert set(snap) == {"order", "replicas"}


def test_rejects_empty_replica_set():
    with pytest.raises(RegistryError):
        ReplicatedRegistryClient({})


# -- drop-in for the dispatchers --------------------------------------------
def test_dispatcher_routes_through_replicated_client(dispatcher_backend):
    """Both dispatcher backends resolve through the replicated client,
    and keep delivering while the preferred replica is dark."""
    metrics = MetricsRegistry()
    replicas = make_cluster(registered=("echo",))
    registry = make_client(replicas, metrics=metrics)
    http = FakeClient(failing=False)
    dispatcher = dispatcher_backend.make_dispatcher(
        registry, http, own_address="http://wsd:8000/msg",
        config=MsgDispatcherConfig(
            cx_threads=1, ws_threads=2, batch_size=1,
        ),
        metrics=metrics, traces=TraceStore(enabled=False),
    )
    try:
        ids = IdGenerator("repl", seed=SEED)
        for _ in range(4):
            env = make_echo_message(to="urn:wsd:echo", message_id=ids.next())
            dispatcher.handle(env, RequestContext(path="/msg/echo"))
        assert wait_for(
            lambda: dispatcher.stats.get("delivered", 0) == 4
        ), dispatcher.stats
        # darken the sweep's first preference mid-run: routing continues
        replicas[registry.replica_names[0]].set_available(False)
        for _ in range(4):
            env = make_echo_message(to="urn:wsd:echo", message_id=ids.next())
            dispatcher.handle(env, RequestContext(path="/msg/echo"))
        assert wait_for(
            lambda: dispatcher.stats.get("delivered", 0) == 8
        ), dispatcher.stats
        assert http.calls == 8
        assert failover_count(registry) >= 1
    finally:
        dispatcher.stop()

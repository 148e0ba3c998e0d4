"""ReplicatedRegistryClient: failover sweep, staleness bias, breakers,
the TTL/single-flight cache, and drop-in use as a dispatcher registry."""


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
from repro.reliable import BreakerConfig
from repro.util.clock import ManualClock
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
    client = make_client(replicas, cache_ttl=0.0)
    victim = client.replica_names[0]
    replicas[victim].set_available(False)
    record = client.lookup("echo")
    assert record.physical == ["http://ws:9000/echo"]
    assert failover_count(client) >= 1
    # repeated sweeps trip the victim's breaker and stop consulting it
    client.lookup("echo")
    client.lookup("echo")
    assert client.breakers.state(victim) == "open"


def test_sweep_rides_out_stale_replica_answering_unknown():
    """A reachable replica that answers "unknown" must not end the sweep:
    a peer that has converged further may still know the name."""
    replicas = make_cluster(registered=())
    client = make_client(replicas, cache_ttl=0.0)
    # only the *last*-preference replica knows the service (the others
    # are healthy but stale, e.g. freshly restarted from a journal)
    straggler = client.replica_names[-1]
    replicas[straggler].register("late", "http://ws:9000/late")
    assert client.lookup("late").physical == ["http://ws:9000/late"]
    # stale answers are healthy answers: no breaker charge, no failover
    assert failover_count(client) == 0
    for name in client.replica_names:
        assert client.breakers.state(name) == "closed"


def test_unknown_everywhere_is_authoritative_no_retry_passes():
    clock = ManualClock()
    client = make_client(
        make_cluster(registered=()), cache_ttl=0.0, clock=clock, max_passes=3
    )
    with pytest.raises(UnknownServiceError):
        client.lookup("ghost")
    # retry passes are for outages, not staleness: no backoff was slept
    assert clock.now() == 0.0


def test_all_replicas_down_raises_registry_unavailable():
    clock = ManualClock()
    replicas = make_cluster()
    for replica in replicas.values():
        replica.set_available(False)
    client = make_client(
        replicas, cache_ttl=0.0, clock=clock, max_passes=2,
        breaker_config=BreakerConfig(consecutive_failures=100, open_for=1.0),
    )
    with pytest.raises(RegistryUnavailable):
        client.lookup("echo")
    assert clock.now() > 0.0  # backoff between the two passes
    assert failover_count(client) == 6  # 2 passes x 3 replicas


def test_bad_request_raises_immediately_without_breaker_charge():
    client = make_client(make_cluster())
    with pytest.raises(RegistryError):
        client.register("", "http://ws:9000/x")
    for name in client.replica_names:
        assert client.breakers.state(name) == "closed"
    assert failover_count(client) == 0


def test_cache_ttl_hit_expiry_and_write_invalidation():
    clock = ManualClock()
    replicas = make_cluster()
    client = make_client(replicas, cache_ttl=5.0, clock=clock)
    client.lookup("echo")
    client.lookup("echo")
    stats = client.cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 1
    clock.advance(6.0)  # past the TTL: the entry is stale
    client.lookup("echo")
    assert client.cache_stats()["misses"] == 2
    # a write through the client invalidates its own cache entry
    client.register("echo", "http://ws:9001/echo-v2")
    assert client.lookup("echo").physical == ["http://ws:9001/echo-v2"]


def test_peek_answers_from_the_cache_and_never_sweeps():
    clock = ManualClock()
    replicas = make_cluster()
    client = make_client(replicas, cache_ttl=5.0, clock=clock)
    for replica in replicas.values():
        replica.set_available(False)
    assert not client.peek("echo")  # a miss: no sweep, no breaker charge
    assert failover_count(client) == 0
    for replica in replicas.values():
        replica.set_available(True)
    client.lookup("echo")
    assert client.peek("echo")
    clock.advance(6.0)
    assert not client.peek("echo")  # expired
    client.lookup("echo")
    client.unregister("echo")  # a write through the client invalidates
    assert not client.peek("echo")
    assert not make_client(replicas, cache_ttl=0.0).peek("echo")


def test_writes_propagate_to_peers_via_gossip():
    replicas = make_cluster(registered=())
    client = make_client(replicas, cache_ttl=0.0)
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
        assert entry["breaker"] in ("closed", "open", "half-open")
        assert entry["available"] is (name != down)
    assert snap["cache"]["misses"] == 1


def test_rejects_empty_replica_set_and_bad_passes():
    with pytest.raises(RegistryError):
        ReplicatedRegistryClient({})
    with pytest.raises(RegistryError):
        ReplicatedRegistryClient({"r1": ServiceRegistry()}, max_passes=0)


# -- drop-in for the dispatchers --------------------------------------------
def test_dispatcher_routes_through_replicated_client(dispatcher_backend):
    """Both dispatcher backends resolve through the replicated client,
    and keep delivering while the preferred replica is dark."""
    metrics = MetricsRegistry()
    replicas = make_cluster(registered=("echo",))
    registry = make_client(replicas, cache_ttl=0.0, metrics=metrics)
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

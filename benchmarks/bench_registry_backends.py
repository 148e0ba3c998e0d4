"""Microbench: registry persistence (the paper's text file vs RAM), plus
the price of replicating discovery.

Reads are served from the in-memory map either way, so persistence only
prices *mutations* — the text file rewrites the whole file per put.

The second half prices the PR 10 replicated registry against a single
in-memory one: an uncached lookup through
:class:`~repro.registry.ReplicatedRegistryClient` pays the failover
sweep (breaker gate + preference order), a cached one collapses back to
a dict probe, and writes pay the sweep plus — off the client's critical
path — one anti-entropy round per peer.  Results land in
``BENCH_registry.json`` for the perf-smoke artifact diff.
"""

import time

import pytest

from _perfjson import write_bench_json
from repro.core.registry import ServiceRegistry
from repro.registry import ReplicatedRegistryClient, sync_pair
from repro.obs.metrics import MetricsRegistry


def _fill(registry: ServiceRegistry, n: int = 100) -> None:
    for i in range(n):
        registry.register(f"svc-{i}", f"http://host-{i}:80/svc")


@pytest.fixture(params=["memory", "textfile"])
def registry(request, tmp_path):
    if request.param == "memory":
        reg = ServiceRegistry()
    else:
        reg = ServiceRegistry(persist_path=str(tmp_path / "reg.txt"))
    _fill(reg)
    return reg


def test_register_cost(benchmark, registry):
    counter = [0]

    def register_one():
        counter[0] += 1
        registry.register(f"new-{counter[0]}", "http://new:80/svc")

    benchmark(register_one)


def test_resolve_cost_is_backend_independent(benchmark, registry):
    address = benchmark(registry.resolve, "svc-50")
    assert address == "http://host-50:80/svc"


# -- single vs replicated ---------------------------------------------------
def _ops_per_sec(fn, n: int) -> float:
    t0 = time.perf_counter()
    for i in range(n):
        fn(i)
    return round(n / (time.perf_counter() - t0), 1)


def _make_replica_set(n_replicas: int = 3, services: int = 100):
    replicas = {
        f"r{i}": ServiceRegistry(peer_id=f"r{i}", metrics=MetricsRegistry())
        for i in range(1, n_replicas + 1)
    }
    first = next(iter(replicas.values()))
    for i in range(services):
        first.register(f"svc-{i}", f"http://host-{i}:80/svc")
    for other in replicas.values():
        if other is not first:
            sync_pair(first, other)
    return replicas


def run_replicated_comparison(paper_scale: bool = False) -> dict:
    reads = 20000 if paper_scale else 5000
    writes = 2000 if paper_scale else 500

    single = ServiceRegistry()
    _fill(single)
    rows = [{
        "backend": "single",
        "lookups_per_sec": _ops_per_sec(
            lambda i: single.lookup(f"svc-{i % 100}"), reads
        ),
        "registers_per_sec": _ops_per_sec(
            lambda i: single.register(f"w-{i}", "http://w:80/svc"), writes
        ),
    }]

    for cache_ttl, label in ((0.0, "replicated-3"), (60.0, "replicated-3-cached")):
        replicas = _make_replica_set()
        client = ReplicatedRegistryClient(
            replicas, seed=11, cache_ttl=cache_ttl,
            metrics=MetricsRegistry(),
        )
        row = {
            "backend": label,
            "lookups_per_sec": _ops_per_sec(
                lambda i: client.lookup(f"svc-{i % 100}"), reads
            ),
            "registers_per_sec": _ops_per_sec(
                lambda i: client.register(f"w-{i}", "http://w:80/svc"), writes
            ),
        }
        if cache_ttl:
            row["cache_hit_rate"] = round(client.cache_stats()["hit_rate"], 4)
        rows.append(row)

    # anti-entropy cost is off the client's critical path: price one full
    # delta propagation of the write burst to both peers
    replicas = _make_replica_set()
    client = ReplicatedRegistryClient(replicas, seed=11, cache_ttl=0.0,
                                      metrics=MetricsRegistry())
    for i in range(writes):
        client.register(f"w-{i}", "http://w:80/svc")
    first = client.replica_names[0]
    t0 = time.perf_counter()
    for name in client.replica_names[1:]:
        sync_pair(replicas[first], replicas[name])
    gossip_elapsed = time.perf_counter() - t0
    by_backend = {r["backend"]: r for r in rows}
    return {
        "benchmark": "registry",
        "rows": rows,
        "gossip": {
            "entries": writes,
            "peers": len(client.replica_names) - 1,
            "entries_per_sec": round(
                writes * (len(client.replica_names) - 1) / gossip_elapsed, 1
            ),
        },
        "gate": {
            # the cached replicated read path must stay within an order
            # of magnitude of a bare dict probe (loose: shared runners)
            "cached_read_fraction": round(
                by_backend["replicated-3-cached"]["lookups_per_sec"]
                / by_backend["single"]["lookups_per_sec"], 3
            ),
            "min_cached_read_fraction": 0.1,
        },
    }


def render_replicated(payload: dict) -> str:
    lines = ["backend\tlookups/s\tregisters/s"]
    for r in payload["rows"]:
        lines.append(
            f"{r['backend']}\t{r['lookups_per_sec']:.0f}\t"
            f"{r['registers_per_sec']:.0f}"
        )
    gossip = payload["gossip"]
    gate = payload["gate"]
    lines.append(
        f"gossip: {gossip['entries']} entries x {gossip['peers']} peers at "
        f"{gossip['entries_per_sec']:.0f} entries/s"
    )
    lines.append(
        f"gate: cached replicated reads keep "
        f"{gate['cached_read_fraction']:.0%} of single-registry rate "
        f"(needs >= {gate['min_cached_read_fraction']:.0%})"
    )
    return "\n".join(lines)


def test_replicated_vs_single_registry(benchmark, paper_scale, record_report):
    payload = benchmark.pedantic(
        lambda: run_replicated_comparison(paper_scale), rounds=1, iterations=1
    )
    record_report("registry", render_replicated(payload))
    write_bench_json("registry", payload)
    gate = payload["gate"]
    assert gate["cached_read_fraction"] >= gate["min_cached_read_fraction"]
    # replication must not lose writes: the burst reached every peer
    assert payload["gossip"]["entries_per_sec"] > 0

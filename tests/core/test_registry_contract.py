"""The registry's contract as one table, run on a lone registry and on a
gossip peer.

The paper's registry and its gossip-convergent copy used to be two
classes whose rules drifted apart; they are one class now, and each rule
on which they disagreed is a row here.  A row acts on a registry that
holds ``echo`` (looked up once, so its lookup cache holds it too) and
states what the registry answers afterwards.  ``[lone]`` is the paper's
registry as the dispatchers build it, ``ServiceRegistry()``; ``[peer]``
is one gossip peer with a journal.  Where gossip needs a rule, the
peer's rule is everyone's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.core.registry import ServiceRegistry
from repro.errors import RegistryUnavailable
from repro.obs.metrics import MetricsRegistry
from repro.store.journal import MessageJournal

ECHO = "http://ws:9000/echo"


def writes_while_unavailable(registry: ServiceRegistry):
    registry.set_available(False)
    refused = 0
    for write in (
        lambda: registry.register("new", "http://ws:9000/new"),
        lambda: registry.unregister("echo"),
        lambda: registry.set_enabled("echo", False),
    ):
        try:
            write()
        except RegistryUnavailable:
            refused += 1
    registry.set_available(True)
    return refused, registry.resolve("echo"), "new" in registry


def unregister_unknown(registry: ServiceRegistry):
    existed = registry.unregister("ghost")
    return existed, registry.stats["tombstones"], "ghost" in registry


def a_gossip_applied_change(registry: ServiceRegistry):
    other = ServiceRegistry(metrics=MetricsRegistry(), peer_id="other")
    other.apply_delta(registry.delta_for({}))
    other.register("echo", "http://ws:9001/echo")
    registry.apply_delta(other.delta_for(registry.vv))
    return registry.peek("echo"), registry.resolve("echo")


def health_across_a_mutation(registry: ServiceRegistry):
    registry.check_alive("echo", lambda address: True, now=1.0)
    before = registry.lookup("echo").last_health
    registry.set_enabled("echo", True)
    return before, registry.lookup("echo").last_health


@dataclass
class Row:
    name: str
    act: Callable[[ServiceRegistry], object]
    expect: object


ROWS = [
    # a write the registry cannot gossip or journal is not taken
    Row("writes-refused-while-unavailable", writes_while_unavailable,
        (3, ECHO, False)),
    # the tombstone guards against a register still in flight on a peer
    Row("unregister-of-an-unknown-name-tombstones", unregister_unknown,
        (False, 1, False)),
    Row("stats-keys", lambda registry: sorted(registry.stats),
        ["applied", "entries", "lookups", "misses", "restored", "tombstones"]),
    Row("metric-families",
        lambda registry: sorted(registry.metrics.snapshot()),
        ["registry_cache_total", "registry_gossip_entries_applied_total",
         "registry_lookups_total", "registry_misses_total",
         "registry_services"]),
    # DispatchCore.routes_in_place asks every registry, without sniffing
    Row("peek-answers-from-the-lookup-cache",
        lambda registry: (registry.peek("echo"), registry.peek("ghost")),
        (True, False)),
    Row("a-gossip-applied-change-invalidates-the-cache",
        a_gossip_applied_change, (False, "http://ws:9001/echo")),
    # any change rebuilds the record; a health check answered for the old one
    Row("last-health-does-not-survive-a-mutation", health_across_a_mutation,
        ((1.0, True), None)),
]

SHAPES = {
    "lone": lambda metrics: ServiceRegistry(metrics=metrics),
    "peer": lambda metrics: ServiceRegistry(
        metrics=metrics, peer_id="p1", journal=MessageJournal(sync="always"),
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_contract(row, shape):
    registry = SHAPES[shape](MetricsRegistry())
    registry.register("echo", ECHO)
    registry.lookup("echo")
    assert row.act(registry) == row.expect

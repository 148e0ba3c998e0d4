"""Replicated, gossip-synced service discovery.

One peer is the paper's registry itself,
:class:`~repro.core.registry.ServiceRegistry` (version-vectored LWW
entries with tombstones, journal-backed when given one); this package
adds what N of them need:

- :mod:`repro.registry.gossip` — the anti-entropy exchange: digest
  compare, delta sync, HTTP endpoint, threaded and simulated drivers;
- :mod:`repro.registry.client` — replica failover for the dispatchers:
  shuffled preference order, per-replica breakers, jittered retry, TTL
  cache with single-flight misses.
"""

from repro.registry.client import ReplicatedRegistryClient
from repro.registry.gossip import (
    GOSSIP_PATH,
    GossipDaemon,
    GossipHandler,
    SimGossipPeer,
    sync_pair,
)

__all__ = [
    "GOSSIP_PATH",
    "GossipDaemon",
    "GossipHandler",
    "ReplicatedRegistryClient",
    "SimGossipPeer",
    "sync_pair",
]

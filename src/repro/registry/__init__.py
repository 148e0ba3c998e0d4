"""Replicated, gossip-synced service discovery.

One peer is the paper's registry itself,
:class:`~repro.core.registry.ServiceRegistry` (version-vectored LWW
entries with tombstones, journal-backed when given one); this package
adds what N of them need:

- :mod:`repro.registry.gossip` — the anti-entropy exchange: digest
  compare, delta sync, the HTTP endpoint, and the simulated periodic
  driver;
- :mod:`repro.registry.client` — replica failover for the dispatchers:
  one sweep in a shuffled preference order per call, never a wait.
"""

from repro.registry.client import ReplicatedRegistryClient
from repro.registry.gossip import (
    GOSSIP_PATH,
    GossipHandler,
    SimGossipPeer,
    sync_pair,
)

__all__ = [
    "GOSSIP_PATH",
    "GossipHandler",
    "ReplicatedRegistryClient",
    "SimGossipPeer",
    "sync_pair",
]

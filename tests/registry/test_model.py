"""A stateful model of the registry: three gossiping peers against a
sequential last-writer-wins oracle.

The oracle keeps, per peer, the set of writes that peer has heard of.  A
write is stamped the way the registry stamps it — one above the highest
Lamport number the writing peer knows, tie broken by peer id — and names
the slots it sets (``register`` all four; ``unregister`` the ``life``
slot, or all four for a name the peer never saw; ``set_enabled`` the
``enabled`` slot).  A peer's expected state is, per slot, the value of
the highest-stamped write it knows.  A gossip round between two
connected peers gives both the union of what they know; a crash drops
the journal's unflushed operations and boots a new incarnation from it,
which must know exactly what the old one did.

Checked after every step: each peer's ``lookup`` answers from what that
peer knows — so a cached record that outlived a gossip-applied change
fails here.  Checked when the partition heals and one full round of
pairwise syncs has run: every digest is equal, and ``list_services()``
and every lookup agree with the oracle over all writes; re-applying a
peer's whole delta changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.registry import ServiceRegistry
from repro.errors import UnknownServiceError
from repro.obs.metrics import MetricsRegistry
from repro.registry import sync_pair
from repro.store.journal import MessageJournal

PEERS = ("a", "b", "c")
NAMES = ("svc0", "svc1")

peers = st.sampled_from(PEERS)
names = st.sampled_from(NAMES)
addresses = st.lists(
    st.sampled_from(("http://h:1/x", "http://h:2/x", "http://h:3/x")),
    min_size=1, max_size=2, unique=True,
)
metadata = st.dictionaries(st.sampled_from(("owner", "ver")), st.sampled_from("xy"))


@dataclass(frozen=True)
class Write:
    stamp: tuple[int, str]
    logical: str
    #: (slot, value) pairs, values made hashable
    slots: tuple


def slots_of(writes, logical: str) -> dict:
    """Per slot, the value of the highest-stamped write of ``logical``."""
    state: dict = {}
    for write in sorted(writes, key=lambda w: w.stamp):
        if write.logical == logical:
            state.update(write.slots)
    return state


def expected(writes, logical: str):
    """What ``list_services`` holds for ``logical``: None when absent."""
    state = slots_of(writes, logical)
    if not state.get("life") or not state["physical"]:
        return None
    return (list(state["physical"]), dict(state["metadata"]), state["enabled"])


class RegistryModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.metrics = MetricsRegistry()
        self.journals = {p: MessageJournal(sync="always") for p in PEERS}
        self.peers = {p: self._boot(p) for p in PEERS}
        self.known: dict[str, set[Write]] = {p: set() for p in PEERS}
        self.cut: set[frozenset] = set()

    def _boot(self, peer: str) -> ServiceRegistry:
        return ServiceRegistry(
            metrics=self.metrics, peer_id=peer, journal=self.journals[peer]
        )

    def _write(self, peer: str, logical: str, **slots) -> None:
        lamport = max((w.stamp[0] for w in self.known[peer]), default=0) + 1
        write = Write((lamport, peer), logical, tuple(sorted(slots.items())))
        self.known[peer] = self.known[peer] | {write}

    def _sync(self, x: str, y: str) -> None:
        converged, _ = sync_pair(self.peers[x], self.peers[y])
        assert converged
        self.known[x] = self.known[y] = self.known[x] | self.known[y]

    # -- writes ------------------------------------------------------------
    @rule(peer=peers, logical=names, physical=addresses, meta=metadata)
    def register(self, peer, logical, physical, meta):
        self.peers[peer].register(logical, physical, metadata=meta)
        self._write(
            peer, logical, life=True, physical=tuple(physical),
            metadata=tuple(sorted(meta.items())), enabled=True,
        )

    @rule(peer=peers, logical=names)
    def unregister(self, peer, logical):
        state = slots_of(self.known[peer], logical)
        alive = expected(self.known[peer], logical) is not None
        assert self.peers[peer].unregister(logical) is alive
        if state:
            self._write(peer, logical, life=False)
        else:
            self._write(
                peer, logical, life=False, physical=(), metadata=(),
                enabled=True,
            )

    @rule(peer=peers, logical=names, enabled=st.booleans())
    def set_enabled(self, peer, logical, enabled):
        if expected(self.known[peer], logical) is None:
            with pytest.raises(UnknownServiceError):
                self.peers[peer].set_enabled(logical, enabled)
            return
        self.peers[peer].set_enabled(logical, enabled)
        self._write(peer, logical, enabled=enabled)

    # -- the network ---------------------------------------------------------
    @rule(x=peers, y=peers)
    def partition(self, x, y):
        if x != y:
            self.cut.add(frozenset((x, y)))

    @precondition(lambda self: self.cut)
    @rule()
    def heal(self):
        self.cut.clear()

    @rule(x=peers, y=peers)
    def sync(self, x, y):
        if x != y and frozenset((x, y)) not in self.cut:
            self._sync(x, y)

    @rule(peer=peers)
    def crash_and_restore(self, peer):
        self.journals[peer].drop_unflushed()
        self.peers[peer] = self._boot(peer)

    @rule()
    def heal_and_sync_every_pair(self):
        self.cut.clear()
        for x, y in zip(PEERS, PEERS[1:] + PEERS[:1]):
            self._sync(x, y)
        everything = set().union(*self.known.values())
        digests = {p: self.peers[p].digest()["vv"] for p in PEERS}
        assert len({tuple(sorted(vv.items())) for vv in digests.values()}) == 1
        listing = [
            (logical, expected(everything, logical)) for logical in NAMES
            if expected(everything, logical) is not None
        ]
        for peer in PEERS:
            registry = self.peers[peer]
            assert [
                (r.logical, (r.physical, r.metadata, r.enabled))
                for r in registry.list_services()
            ] == listing
            for other in PEERS:
                assert registry.apply_delta(self.peers[other].delta_for({})) == 0

    # -- every step ----------------------------------------------------------
    @invariant()
    def lookups_agree(self):
        for peer, registry in self.peers.items():
            for logical in NAMES:
                want = expected(self.known[peer], logical)
                if want is None or not want[2]:
                    with pytest.raises(UnknownServiceError):
                        registry.lookup(logical)
                    continue
                record = registry.lookup(logical)
                assert (record.physical, record.metadata) == want[:2]


TestRegistryModel = RegistryModel.TestCase
TestRegistryModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)

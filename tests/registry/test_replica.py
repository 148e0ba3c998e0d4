"""Version-vector merge semantics of one registry peer.

The merge rules are the whole correctness story of the replicated
registry: per-field last-writer-wins with ``(lamport, peer)`` stamps,
tombstones for unregister, idempotent state-based deltas, and a wire
format that cannot depend on ``PYTHONHASHSEED``.
"""

import subprocess
import sys

import pytest

from repro.core.registry import ServiceRegistry
from repro.errors import RegistryUnavailable, UnknownServiceError
from repro.registry import sync_pair
from repro.store.journal import MessageJournal


def test_register_lookup_roundtrip():
    replica = ServiceRegistry(peer_id="a")
    replica.register("echo", "http://ws:9000/echo", metadata={"ver": "1"})
    record = replica.lookup("echo")
    assert record.physical == ["http://ws:9000/echo"]
    assert record.metadata == {"ver": "1"}
    assert "echo" in replica
    assert len(replica) == 1


def test_concurrent_registers_converge_to_one_winner():
    a, b = ServiceRegistry(peer_id="a"), ServiceRegistry(peer_id="b")
    a.register("svc", "http://a:1/svc")
    b.register("svc", "http://b:2/svc")
    sync_pair(a, b)
    sync_pair(b, a)
    # both writes carry lamport 1; the tie breaks on peer id, so every
    # replica picks the same winner ("b" > "a")
    assert a.lookup("svc").physical == ["http://b:2/svc"]
    assert b.lookup("svc").physical == ["http://b:2/svc"]
    assert a.vv == b.vv == {"a": 1, "b": 1}


def test_concurrent_register_and_unregister_tombstone_wins_tie():
    a, b = ServiceRegistry(peer_id="a"), ServiceRegistry(peer_id="b")
    a.register("svc", "http://a:1/svc")
    sync_pair(a, b)
    # concurrent, equal-lamport conflict: a re-registers, b unregisters
    a.register("svc", "http://a:9/svc-v2")
    b.unregister("svc")
    sync_pair(a, b)
    sync_pair(b, a)
    for replica in (a, b):
        with pytest.raises(UnknownServiceError):
            replica.lookup("svc")
        assert replica.list_services() == []
    assert a.stats["tombstones"] == b.stats["tombstones"] == 1


def test_register_after_tombstone_resurrects():
    a, b = ServiceRegistry(peer_id="a"), ServiceRegistry(peer_id="b")
    a.register("svc", "http://a:1/svc")
    sync_pair(a, b)
    b.unregister("svc")
    sync_pair(b, a)
    with pytest.raises(UnknownServiceError):
        a.lookup("svc")
    # a higher-stamped register beats the tombstone everywhere
    a.register("svc", "http://a:2/svc-back")
    sync_pair(a, b)
    assert b.lookup("svc").physical == ["http://a:2/svc-back"]


def test_tombstone_suppresses_stale_register_replay():
    """An *older* register gossiped after the unregister must not
    resurrect the name (the LWW stamps, not arrival order, decide)."""
    a, b = ServiceRegistry(peer_id="a"), ServiceRegistry(peer_id="b")
    a.register("svc", "http://a:1/svc")
    stale_delta = a.delta_for({})
    a.unregister("svc")
    sync_pair(a, b)
    assert b.apply_delta(stale_delta) == 0
    with pytest.raises(UnknownServiceError):
        b.lookup("svc")


def test_regossip_of_same_digest_is_idempotent():
    a = ServiceRegistry(peer_id="a")
    a.register("one", "http://h:1/one")
    a.register("two", "http://h:2/two")
    a.unregister("two")
    delta = a.delta_for({})
    c = ServiceRegistry(peer_id="c")
    assert c.apply_delta(delta) > 0
    assert c.apply_delta(delta) == 0
    assert c.vv == a.vv
    # a full round against an already-synced peer applies nothing
    converged, applied = sync_pair(c, a)
    assert converged
    assert applied == 0


def test_delta_for_returns_only_missing_entries():
    a = ServiceRegistry(peer_id="a")
    a.register("one", "http://h:1/one")
    a.register("two", "http://h:2/two")
    assert a.delta_for(a.vv) == []
    partial = a.delta_for({"a": 1})
    assert [e["logical"] for e in partial] == ["two"]


def test_set_enabled_state_gossips():
    a, b = ServiceRegistry(peer_id="a"), ServiceRegistry(peer_id="b")
    a.register("svc", "http://h:1/svc")
    sync_pair(a, b)
    a.set_enabled("svc", False)
    sync_pair(a, b)
    for replica in (a, b):
        with pytest.raises(UnknownServiceError):
            replica.lookup("svc")
    with pytest.raises(UnknownServiceError):
        a.set_enabled("ghost", True)


def test_unavailable_replica_refuses_reads_writes_and_gossip():
    replica = ServiceRegistry(peer_id="a")
    replica.register("echo", "http://h:1/echo")
    delta = replica.delta_for({})
    replica.set_available(False)
    with pytest.raises(RegistryUnavailable):
        replica.lookup("echo")
    with pytest.raises(RegistryUnavailable):
        replica.register("x", "http://h:1/x")
    with pytest.raises(RegistryUnavailable):
        replica.unregister("echo")
    with pytest.raises(RegistryUnavailable):
        replica.set_enabled("echo", False)
    with pytest.raises(RegistryUnavailable):
        replica.apply_delta(delta)
    replica.set_available(True)
    assert replica.lookup("echo").logical == "echo"


def test_journal_restore_rebuilds_state_and_vector():
    journal = MessageJournal(sync="always")
    replica = ServiceRegistry(peer_id="a", journal=journal)
    replica.register("echo", "http://h:1/echo")
    replica.register("gone", "http://h:2/gone")
    replica.unregister("gone")
    replica.register("dark", "http://h:3/dark")
    replica.set_enabled("dark", False)
    # a new incarnation reopens the same journal (the disk survived)
    reborn = ServiceRegistry(peer_id="a", journal=journal)
    assert reborn.restored > 0
    # tombstoned "gone" is dropped; disabled "dark" stays listed (it is
    # still registered, just not resolvable) — same as the live replica
    assert [r.logical for r in reborn.list_services()] == ["dark", "echo"]
    assert reborn.vv == replica.vv
    with pytest.raises(UnknownServiceError):
        reborn.lookup("gone")
    with pytest.raises(UnknownServiceError):
        reborn.lookup("dark")
    # the restored replica keeps stamping above its own history
    reborn.register("after", "http://h:4/after")
    assert reborn.vv["a"] > replica.vv["a"]


def test_gossip_wire_bytes_are_hashseed_independent():
    """Digest + delta bytes must not depend on dict iteration order:
    every replica process has a different PYTHONHASHSEED."""
    code = (
        "from repro.core.registry import ServiceRegistry\n"
        "from repro.registry.gossip import encode_gossip, gossip_payload\n"
        "r = ServiceRegistry(peer_id='p')\n"
        "for i in range(10):\n"
        "    r.register(f'svc-{i}', f'http://h:{i}/s',\n"
        "               metadata={f'k{i}': 'v', 'zz': 'y', 'aa': 'x'})\n"
        "r.unregister('svc-3')\n"
        "print(encode_gossip(\n"
        "    gossip_payload(r, entries=r.delta_for({}))).decode())\n"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "12345")
    }
    assert len(outs) == 1

"""The consistent-hash ring: determinism is the whole point.

Every shard process builds its own :class:`HashRing` from nothing but
the shard count; if two builds ever disagreed about an owner, two shards
would both claim (or both disown) a destination and FIFO order would
split.  The ring therefore hashes with blake2b, never the
randomized builtin ``hash``.
"""

import subprocess
import sys

from repro.shard import HashRing


def test_owner_in_range():
    ring = HashRing(4)
    for key in ("svc0", "urn:wsd:echo", "", "日本語"):
        assert 0 <= ring.owner(key) < 4


def test_single_shard_owns_everything():
    ring = HashRing(1)
    assert all(ring.owner(f"svc{i}") == 0 for i in range(50))


def test_deterministic_across_constructions():
    first, second = HashRing(8), HashRing(8)
    keys = [f"dest-{i}" for i in range(200)]
    assert [first.owner(k) for k in keys] == [second.owner(k) for k in keys]


def test_deterministic_across_processes():
    """The real hazard: PYTHONHASHSEED varies per process, and every
    worker builds the ring independently."""
    keys = [f"dest-{i}" for i in range(32)]
    code = (
        "from repro.shard import HashRing\n"
        f"print([HashRing(4).owner(k) for k in {keys!r}])\n"
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
    local = [HashRing(4).owner(k) for k in keys]
    assert outs.pop().strip() == repr(local)


def test_distribution_reasonably_balanced():
    ring = HashRing(4)
    counts = ring.distribution(f"dest-{i}" for i in range(4000))
    assert set(counts) == {0, 1, 2, 3}
    assert min(counts.values()) > 4000 / 4 * 0.5


def test_explicit_shard_ids():
    """A ring can be built over explicit ids (e.g. a degraded fleet)."""
    ring = HashRing([0, 2])
    owners = {ring.owner(f"d{i}") for i in range(100)}
    assert owners <= {0, 2}
    assert len(ring) == 2


def test_adding_shards_moves_only_some_keys():
    """Consistent hashing's contract: growing the ring remaps a fraction
    of the keyspace, not all of it."""
    small, big = HashRing(4), HashRing(5)
    keys = [f"dest-{i}" for i in range(1000)]
    moved = sum(small.owner(k) != big.owner(k) for k in keys)
    assert 0 < moved < 600  # ~1/5 expected; all-1000 means modulo hashing

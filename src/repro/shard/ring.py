"""Consistent-hash ring: destination name -> owning shard.

Every process that routes messages — each worker and any relay decision
— must agree on which shard owns a logical destination, across restarts
and across Python invocations.  That rules out the builtin ``hash()``
(randomized per process by PYTHONHASHSEED); the ring hashes with
BLAKE2b, so ownership is a pure function of (shard count, replicas,
key).

Virtual nodes (``replicas`` points per shard) smooth the key
distribution, and consistent hashing keeps most assignments stable when
the shard count changes — only the keys on arcs claimed by new points
move, which is what makes a future resize replay only a fraction of the
journals.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import Counter
from typing import Iterable

__all__ = ["HashRing"]


def _point(data: str) -> int:
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Maps string keys to shard ids, identically in every process."""

    def __init__(self, shards: int | Iterable[int], replicas: int = 64) -> None:
        if isinstance(shards, int):
            shard_ids = list(range(shards))
        else:
            shard_ids = sorted(set(shards))
        if not shard_ids:
            raise ValueError("a ring needs at least one shard")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.shard_ids = shard_ids
        self.replicas = replicas
        points: list[tuple[int, int]] = []
        for shard_id in shard_ids:
            for replica in range(replicas):
                points.append((_point(f"shard{shard_id}:{replica}"), shard_id))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def owner(self, key: str) -> int:
        """The shard id owning ``key`` (first ring point at or after it)."""
        index = bisect.bisect_left(self._points, _point(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def distribution(self, keys: Iterable[str]) -> Counter:
        """Shard id -> how many of ``keys`` it owns (balance diagnostics)."""
        counts: Counter = Counter()
        for key in keys:
            counts[self.owner(key)] += 1
        return counts

    def __len__(self) -> int:
        return len(self.shard_ids)


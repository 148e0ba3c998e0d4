"""Online statistics used by the test clients and benchmark harness.

The paper's test client "records statistical data" (number of calls made,
packets transmitted / not sent).  We keep richer per-run statistics but all
of them are computed online in O(1) memory per sample (running mean,
fixed-bucket histogram), so a 60-second simulated run with thousands of
clients does not accumulate per-message lists.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field


class OnlineStats:
    """Online mean plus min/max.

    >>> s = OnlineStats()
    >>> for x in (1.0, 2.0, 3.0): s.add(x)
    >>> s.mean
    2.0
    """

    __slots__ = ("count", "_mean", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self._mean += (value - self._mean) / self.count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0


class Histogram:
    """Fixed-width bucket histogram with overflow bucket.

    Approximate quantiles are read back by walking the cumulative counts;
    resolution is one bucket width, which is plenty for latency reporting.
    """

    def __init__(self, bucket_width: float, num_buckets: int = 256) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        self.bucket_width = bucket_width
        self.buckets = [0] * num_buckets
        self.overflow = 0
        self.count = 0

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        idx = int(value / self.bucket_width)
        self.count += 1
        if idx >= len(self.buckets):
            self.overflow += 1
        else:
            self.buckets[idx] += 1

    def quantile(self, q: float) -> float:
        """Upper edge of the bucket containing quantile ``q`` (0..1).

        ``q=0`` is the distribution minimum, reported as the *lower* edge
        of the first occupied bucket (an upper edge would overstate the
        minimum by a whole bucket width).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            for i, c in enumerate(self.buckets):
                if c:
                    return i * self.bucket_width
            # every sample overflowed: the minimum is at least the
            # overflow bucket's lower edge
            return len(self.buckets) * self.bucket_width
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.buckets):
            seen += c
            if seen >= target and c:
                return (i + 1) * self.bucket_width
        return math.inf  # landed in the overflow bucket


@dataclass
class Counter:
    """Named monotonic counters (transmitted / not-sent / errors ...).

    Thread-safe: the dispatchers increment these from CxThreads and
    WsThreads concurrently, so the read-modify-write is under a lock.
    """

    values: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.values[name] = self.values.get(name, 0) + amount

    def get(self, name: str) -> int:
        with self._lock:
            return self.values.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return dict(self.values)

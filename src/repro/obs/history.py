"""Metrics history: periodic registry snapshots in a bounded ring.

``GET /metrics`` answers *what is the state now*; experiments and
postmortems need *how did it get there*.  :class:`MetricsSnapshotter`
samples a :class:`~repro.obs.metrics.MetricsRegistry` every ``interval``
seconds into a bounded time-series ring: each sample is a flat
``{"t": ..., "values": {"name{label=x}": number}}`` dict (counters and
gauges by value, histograms as ``_count``/``_sum``/``_p99`` derivatives),
so a whole chaos run compresses to a few hundred small dicts regardless
of message volume.

Two driving modes:

- :meth:`sim_process` — a generator to hand to ``sim.process(...)`` so
  sampling happens in *simulated* time (deterministic under a seed);
- :meth:`sample` — manual, for tests and teardown snapshots.

The ring is served as ``GET /metrics/history`` (JSON) by
:class:`repro.obs.http.Introspection` and exported to
``benchmarks/out/metrics_history.json`` by the chaos experiment via
:meth:`export_json`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Callable

from repro.obs.metrics import MetricsRegistry, default_registry


class MetricsSnapshotter:
    """Samples a registry into a bounded time-series ring buffer."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        interval: float = 1.0,
        capacity: int = 600,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.metrics = metrics if metrics is not None else default_registry()
        self.interval = interval
        self.capacity = capacity
        self.clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._samples: deque[dict] = deque(maxlen=capacity)

    # -- sampling ----------------------------------------------------------
    def _flatten(self) -> dict[str, float]:
        values: dict[str, float] = {}
        for name, family in self.metrics.snapshot().items():
            kind = family["kind"]
            for sample in family["samples"]:
                labels = sample.get("labels") or {}
                key = name
                if labels:
                    inner = ",".join(
                        f"{k}={v}" for k, v in sorted(labels.items())
                    )
                    key = f"{name}{{{inner}}}"
                if kind == "histogram":
                    values[f"{key}_count"] = sample["count"]
                    values[f"{key}_sum"] = sample["sum"]
                    p99 = sample.get("quantiles", {}).get(0.99)
                    if p99 is not None:
                        values[f"{key}_p99"] = p99
                else:
                    values[key] = sample["value"]
        return values

    def sample(self, t: float | None = None) -> dict:
        """Take one snapshot now; returns the appended sample."""
        entry = {
            "t": float(t) if t is not None else self.clock(),
            "values": self._flatten(),
        }
        with self._lock:
            self._samples.append(entry)
        return entry

    # -- retrieval ---------------------------------------------------------
    def history(self) -> list[dict]:
        with self._lock:
            return [dict(s) for s in self._samples]

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def to_json(self) -> dict:
        return {
            "interval": self.interval,
            "capacity": self.capacity,
            "samples": self.history(),
        }

    def export_json(self, path: str) -> str:
        """Write the ring to ``path`` as deterministic JSON."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    # -- simulated driver --------------------------------------------------
    def sim_process(self, sim, until: float | None = None):
        """Generator for ``sim.process(...)``: samples in simulated time.

        With ``until`` set the process exits on its own (so ``sim.run()``
        without a horizon still terminates); without it, it samples until
        the simulation stops scheduling it.
        """
        while until is None or sim.now < until:
            yield sim.timeout(self.interval)
            self.sample(t=sim.now)

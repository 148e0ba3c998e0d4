"""Flight recorder: an always-on ring buffer of state-transition events.

Metrics answer *how much* and traces answer *where*, but neither answers
the postmortem question — *what happened in the five seconds before this
deadletter?*  The :class:`FlightRecorder` keeps a bounded deque of
structured events recorded at every interesting state transition in the
pipeline: breaker trips, overload sheds, deadletters, journal recovery,
chaos fault activations, drain timeouts, simulated crashes — and the fate
of each message the dispatcher drops, holds or suppresses as a duplicate,
under its trace id.  Recording is a dict append under a lock — cheap
enough to leave on in production, which is the whole point: the recorder
is most valuable for the failure nobody reproduced.

On a terminal event (crash, deadletter) the owning component calls
:meth:`FlightRecorder.postmortem`, which dumps the current ring to a JSON
file in ``postmortem_dir`` — the "black box" retrieved after the fact.
Dumps are capped by ``postmortem_limit`` so a deadletter storm cannot fill
the disk.

Timestamps are supplied by the recording component (``t=``) so the ring
works identically under the simulated clock and the threaded runtime; when
omitted the recorder falls back to its own ``clock`` (wall monotonic by
default).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Callable


class FlightRecorder:
    """Bounded ring buffer of structured state-transition events."""

    def __init__(
        self,
        capacity: int = 2048,
        enabled: bool = True,
        clock: Callable[[], float] | None = None,
        postmortem_dir: str | None = None,
        postmortem_limit: int = 16,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.enabled = enabled
        self.clock = clock if clock is not None else time.monotonic
        self.postmortem_dir = postmortem_dir
        self.postmortem_limit = postmortem_limit
        self._lock = threading.Lock()
        self._events: deque[dict] = deque(maxlen=capacity)
        self._seq = 0
        self._dumps = 0

    # -- recording ---------------------------------------------------------
    def record(
        self, kind: str, component: str, t: float | None = None, **fields
    ) -> dict | None:
        """Append one event; returns it (None when disabled).

        ``kind`` is the transition class (``breaker-open``, ``shed``,
        ``deadletter``, ...), ``component`` names the recording party, and
        ``fields`` carry the event-specific payload (stringified so the
        ring is always JSON-serialisable).
        """
        if not self.enabled:
            return None
        event = {
            "kind": kind,
            "component": component,
            "t": float(t) if t is not None else self.clock(),
        }
        for key, value in fields.items():
            if value is None:
                continue
            event[key] = value if isinstance(value, (int, float, bool)) else str(value)
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            self._events.append(event)
        return event

    # -- retrieval ---------------------------------------------------------
    def snapshot(self, last: int | None = None, kind: str | None = None) -> list[dict]:
        """Recent events oldest-first, optionally filtered by kind and cut
        to the newest ``last`` (``0`` keeps none; a negative ``last`` is a
        :class:`ValueError`)."""
        if last is not None and last < 0:
            raise ValueError(f"last must be >= 0, got {last}")
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e["kind"] == kind]
        if last is not None:
            events = events[-last:] if last else []
        return [dict(e) for e in events]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (monotonic, unlike ``len`` on a full ring)."""
        with self._lock:
            return self._seq

    def counts_by_kind(self) -> dict[str, int]:
        with self._lock:
            events = list(self._events)
        out: dict[str, int] = {}
        for e in events:
            out[e["kind"]] = out.get(e["kind"], 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "capacity": self.capacity,
            "enabled": self.enabled,
            "total_recorded": self.total_recorded,
            "counts_by_kind": self.counts_by_kind(),
            "postmortems_written": self._dumps,
            "events": self.snapshot(),
        }

    # -- postmortem dumps --------------------------------------------------
    def dump(self, path: str, trigger: str = "manual") -> str:
        """Write the current ring to ``path`` as deterministic JSON."""
        payload = {
            "trigger": trigger,
            "total_recorded": self.total_recorded,
            "events": self.snapshot(),
        }
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def postmortem(
        self, trigger: str, t: float | None = None, **fields
    ) -> str | None:
        """Dump the ring to ``postmortem_dir`` on a terminal event.

        Returns the written path, or None when no directory is configured
        or the per-process dump cap was reached.  The triggering event is
        recorded into the ring first so the dump explains itself; pass
        ``t`` under the simulated clock so dumps stay deterministic.
        """
        self.record("postmortem", "flight", t=t, **{"trigger": trigger, **fields})
        if self.postmortem_dir is None:
            return None
        with self._lock:
            if self._dumps >= self.postmortem_limit:
                return None
            self._dumps += 1
            n = self._dumps
        path = os.path.join(self.postmortem_dir, f"postmortem-{n}-{trigger}.json")
        return self.dump(path, trigger=trigger)


# -- process-wide default recorder -----------------------------------------
_default_lock = threading.Lock()
_default_recorder = FlightRecorder()


def default_flight_recorder() -> FlightRecorder:
    """The process-wide recorder components record into by default."""
    with _default_lock:
        return _default_recorder


def set_default_flight_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Swap the process-wide default; returns the previous one."""
    global _default_recorder
    with _default_lock:
        previous = _default_recorder
        _default_recorder = recorder
        return previous

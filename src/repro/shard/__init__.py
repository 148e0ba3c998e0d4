"""repro.shard — the multi-process sharded dispatcher (GIL escape).

One CPython process dispatches on one core; this package multiplies the
dispatcher across processes while preserving every single-process
guarantee:

- :mod:`repro.shard.ring` — deterministic consistent hashing from
  logical destination names to owning shards (:class:`HashRing`).
  A :class:`~repro.core.msg_dispatcher.MsgDispatcher` (or
  ``AioMsgDispatcher``) given a ring relays the messages it does not own
  to the owner's direct endpoint, so per-destination FIFO order, breaker
  state, hold/retry schedules, and correlations stay shard-local with no
  cross-process locking.
- :mod:`repro.shard.spec` — :class:`ShardSpec`, the JSON boot contract
  between supervisor and worker.
- :mod:`repro.shard.worker` — :class:`ShardWorker`, one shard's full
  deployment (``python -m repro.shard.worker``), threaded or asyncio.
- :mod:`repro.shard.supervisor` — :class:`ShardSupervisor`: spawns the
  fleet behind one shared data port, restarts crashed workers against
  their own per-shard journals (``journal-shard<k>.db``), and serves
  aggregated ``/metrics`` (merged Prometheus exposition), ``/health``,
  and ``/slo``.
"""

from repro.shard.ring import HashRing
from repro.shard.spec import ShardSpec
from repro.shard.supervisor import ShardSupervisor, SupervisorConfig


def __getattr__(name: str):
    # lazy: repro.shard.worker doubles as `python -m repro.shard.worker`,
    # and importing it from the package __init__ would make runpy warn
    # about re-executing an already-imported module in every subprocess
    if name == "ShardWorker":
        from repro.shard.worker import ShardWorker

        globals()[name] = ShardWorker
        return ShardWorker
    raise AttributeError(name)


__all__ = [
    "HashRing",
    "ShardSpec",
    "ShardSupervisor",
    "ShardWorker",
    "SupervisorConfig",
]

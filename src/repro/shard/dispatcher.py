"""Shard-aware dispatchers: consistent-hash ownership as a routing rule.

A sharded deployment runs N dispatcher processes behind one shared data
port; the kernel (SO_REUSEPORT) or the supervisor's fanout acceptor
spreads client connections arbitrarily, so any shard can receive a
message for any destination.  Ownership is restored at routing time:
:meth:`repro.core.dispatch.DispatchCore.route` consults the
:class:`~repro.shard.ring.HashRing` it was given and *relays* messages it
does not own to the owner's direct endpoint, byte-verbatim, through its
own per-destination FIFO machinery — so relays ride persistent
connections and pipeline in batches like any other delivery.

Everything that must be per-destination-exclusive — FIFO order, breaker
state, hold/retry schedules, correlation entries, the duplicate filter —
therefore lives in exactly one process per destination with no
cross-process locking.  The check sits in ``route`` (not ``handle``)
deliberately: journal replay after a crash and hold-store redelivery
re-enter routing through the same method, so a restarted shard re-relays
any foreign messages it had journaled before dying.

The classes here only hand the ring to the core; the rule is written
once, for every driver.
"""

from __future__ import annotations

from repro.core.msg_dispatcher import MsgDispatcher
from repro.shard.ring import HashRing

__all__ = ["ShardedMsgDispatcher", "AioShardedMsgDispatcher"]


class _ShardRoutingMixin:
    """Constructor plumbing: ``shard_id``/``ring``/``peers`` for the core."""

    def __init__(
        self,
        *args,
        shard_id: int = 0,
        ring: HashRing | None = None,
        peers: dict[int, str] | None = None,
        **kwargs,
    ) -> None:
        self.shard_id = shard_id
        self.ring = ring
        #: shard id -> peer *direct* base URL (http://host:port); relays
        #: bypass the shared port so they land on the owner, not the kernel's
        #: pick
        self.peers = dict(peers or {})
        super().__init__(*args, **kwargs)


class ShardedMsgDispatcher(_ShardRoutingMixin, MsgDispatcher):
    """Threaded dispatcher with consistent-hash shard ownership."""


def _aio_sharded_class():
    # repro.aio imports are deferred so a threaded-only deployment never
    # pays for (or depends on) the asyncio runtime module
    from repro.aio.dispatcher import AioMsgDispatcher

    class AioShardedMsgDispatcher(_ShardRoutingMixin, AioMsgDispatcher):
        """Event-loop dispatcher with consistent-hash shard ownership.

        Like :class:`~repro.aio.dispatcher.AioMsgDispatcher`, construct
        it from a coroutine running on the owning loop.
        """

    return AioShardedMsgDispatcher


def __getattr__(name: str):
    if name == "AioShardedMsgDispatcher":
        cls = _aio_sharded_class()
        globals()[name] = cls
        return cls
    raise AttributeError(name)

"""The shard worker's boot contract: everything a worker process needs.

The supervisor serializes a :class:`ShardSpec` to JSON and hands it to
``python -m repro.shard.worker`` on argv; the worker rebuilds its whole
deployment (registry seed, ring geometry, peer map, journal path, runtime
choice) from it.  Keeping the contract an explicit dataclass — instead of
pickled closures — is what makes single-shard restart trivial: respawning
a crashed worker is re-sending the same spec.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

__all__ = ["RUNTIMES", "ShardSpec"]

#: the worker runtimes: "threaded" runs a MsgDispatcher, "aio" an
#: AioMsgDispatcher on one event loop
RUNTIMES = ("threaded", "aio")


@dataclass
class ShardSpec:
    """One worker's share of a sharded dispatcher deployment."""

    shard_id: int
    shards: int
    #: the shared client-facing endpoint (every shard binds it with
    #: SO_REUSEPORT)
    data_host: str
    data_port: int
    #: this shard's private endpoint: peers relay here, services reply here
    direct_port: int
    #: shard id -> direct base URL for every shard (self included)
    peers: dict[int, str] = field(default_factory=dict)
    #: logical name -> physical URL seed for the worker's ServiceRegistry
    registry: dict[str, str] = field(default_factory=dict)
    mount_prefix: str = "/msg"
    #: one of :data:`RUNTIMES`
    runtime: str = "threaded"
    #: per-shard journal file; None runs the shard non-durable
    journal_path: str | None = None
    ws_threads: int = 8
    server_workers: int = 16
    batch_size: int = 8

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ShardSpec":
        data = json.loads(text)
        # JSON object keys are strings; the peer map is keyed by shard id
        data["peers"] = {
            int(shard): url for shard, url in data.get("peers", {}).items()
        }
        return cls(**data)

"""One shard: a full dispatcher deployment booted from a ShardSpec.

Runnable as ``python -m repro.shard.worker '<spec json>'`` (or
``@/path/to/spec.json``).  The worker builds its registry, ring, journal,
and dispatcher from the spec, serves the shared data endpoint *and* its
private direct endpoint (peer relays, service replies, supervisor
scrapes), prints one ready line of JSON on stdout for the supervisor,
and drains gracefully on SIGTERM.

:class:`ShardWorker` is also constructible in-process, which is how the
unit tests exercise a shard without forking.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading

from repro.core.registry import ServiceRegistry
from repro.core.msg_dispatcher import MsgDispatcher, MsgDispatcherConfig
from repro.obs.flight import FlightRecorder
from repro.obs.http import Introspection
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.reliable.policy import ExponentialBackoff
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import SoapHttpApp
from repro.shard.ring import HashRing
from repro.shard.spec import RUNTIMES, ShardSpec
from repro.store.journal import MessageJournal
from repro.transport.base import Endpoint
from repro.transport.tcp import TcpConnector, TcpListener

__all__ = ["ShardWorker", "main"]

#: what every shard runs with; the spec carries only what the
#: supervisor's config sets
JOURNAL_SYNC = "group"
DEDUPE_WINDOW = 60.0
CX_THREADS = 2
#: relay retries cover the path to a crashed peer while it restarts
RETRY_ATTEMPTS = 8
RETRY_BASE = 0.05
RETRY_MAX_DELAY = 0.5


class ShardWorker:
    """Builds and runs one shard's servers + dispatcher from a spec."""

    def __init__(self, spec: ShardSpec) -> None:
        if spec.runtime not in RUNTIMES:
            raise ValueError(f"unknown shard runtime {spec.runtime!r}")
        self.spec = spec
        self.metrics = MetricsRegistry()
        self.traces = TraceStore(span_prefix=f"shard{spec.shard_id}")
        self.flight = FlightRecorder()
        self.ring = HashRing(spec.shards)
        self.registry = ServiceRegistry(metrics=self.metrics)
        for logical, physical in spec.registry.items():
            self.registry.register(logical, physical)
        self.journal = None
        if spec.journal_path:
            self.journal = MessageJournal(
                spec.journal_path, sync=JOURNAL_SYNC, flight=self.flight
            )
        self.dispatcher = None
        self._loop_thread = None
        self._servers: list = []
        self._clients: list = []
        self.metrics.gauge(
            "shard_id", "which shard this process serves"
        ).set_function(lambda: spec.shard_id)

    # -- assembly ----------------------------------------------------------
    def _dispatcher_config(self) -> MsgDispatcherConfig:
        spec = self.spec
        return MsgDispatcherConfig(
            cx_threads=CX_THREADS,
            ws_threads=spec.ws_threads,
            batch_size=spec.batch_size,
            dedupe_window=DEDUPE_WINDOW,
            retry=ExponentialBackoff(
                max_attempts=RETRY_ATTEMPTS,
                base=RETRY_BASE,
                max_delay=RETRY_MAX_DELAY,
            ),
        )

    @property
    def own_address(self) -> str:
        spec = self.spec
        return (
            f"http://{spec.data_host}:{spec.direct_port}{spec.mount_prefix}"
        )

    def _build_app(self) -> SoapHttpApp:
        spec = self.spec
        app = SoapHttpApp(metrics=self.metrics)
        app.mount(spec.mount_prefix, self.dispatcher)
        intro = Introspection(
            metrics=self.metrics, traces=self.traces, flight=self.flight,
            title=f"shard {spec.shard_id}",
        )
        intro.add_health_source(
            f"shard{spec.shard_id}", self.dispatcher.health_snapshot
        )
        intro.add_source(f"shard{spec.shard_id}", lambda: self.dispatcher.stats)
        if self.journal is not None:
            intro.add_deadletter_source(
                f"shard{spec.shard_id}", self.journal.deadletter_snapshot
            )
        intro.mount(app)
        return app

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ShardWorker":
        if self.spec.runtime == "aio":
            self._start_aio()
        else:
            self._start_threaded()
        return self

    def _start_threaded(self) -> None:
        spec = self.spec
        client = HttpClient(TcpConnector(), metrics=self.metrics)
        self._clients.append(client)
        self.dispatcher = MsgDispatcher(
            self.registry, client, self.own_address,
            mount_prefix=spec.mount_prefix,
            config=self._dispatcher_config(),
            metrics=self.metrics, traces=self.traces, flight=self.flight,
            durable=self.journal, recover=True,
            shard_id=spec.shard_id, ring=self.ring, peers=spec.peers,
        )
        app = self._build_app()
        self._servers.append(
            HttpServer(
                TcpListener(
                    Endpoint(spec.data_host, spec.data_port), reuse_port=True
                ),
                app.handle_request,
                workers=spec.server_workers,
                name=f"shard{spec.shard_id}-data", metrics=self.metrics,
            ).start()
        )
        self._servers.append(
            HttpServer(
                TcpListener(Endpoint(spec.data_host, spec.direct_port)),
                app.handle_request, workers=spec.server_workers,
                name=f"shard{spec.shard_id}-direct", metrics=self.metrics,
            ).start()
        )

    def _start_aio(self) -> None:
        from repro.aio import (
            AioHttpClient, AioHttpServer, AioLoopThread, AioMsgDispatcher,
        )

        spec = self.spec
        self._loop_thread = AioLoopThread(
            name=f"shard{spec.shard_id}-loop"
        ).start()

        async def boot():
            client = AioHttpClient(metrics=self.metrics)
            self._clients.append(client)
            dispatcher = AioMsgDispatcher(
                self.registry, client, self.own_address,
                mount_prefix=spec.mount_prefix,
                config=self._dispatcher_config(),
                metrics=self.metrics, traces=self.traces, flight=self.flight,
                durable=self.journal, recover=True,
                shard_id=spec.shard_id, ring=self.ring, peers=spec.peers,
            )
            self.dispatcher = dispatcher
            app = self._build_app()
            data_server = await AioHttpServer(
                app.handle_request, host=spec.data_host, port=spec.data_port,
                reuse_port=True, name=f"shard{spec.shard_id}-data",
                metrics=self.metrics,
            ).start()
            direct_server = await AioHttpServer(
                app.handle_request, host=spec.data_host,
                port=spec.direct_port,
                name=f"shard{spec.shard_id}-direct", metrics=self.metrics,
            ).start()
            return data_server, direct_server

        self._servers.extend(self._loop_thread.run(boot()))

    def stop(self, drain: bool = True, timeout: float = 5.0) -> None:
        if self.dispatcher is not None:
            self.dispatcher.stop(drain=drain, timeout=timeout)
        for server in self._servers:
            if self._loop_thread is not None:
                self._loop_thread.run(server.stop())
            else:
                server.stop()
        self._servers.clear()
        for client in self._clients:
            client.close()
        self._clients.clear()
        if self._loop_thread is not None:
            self._loop_thread.stop()
            self._loop_thread = None
        if self.journal is not None:
            self.journal.close()

    # -- supervisor protocol ------------------------------------------------
    def ready_line(self) -> str:
        return json.dumps(
            {
                "ready": True,
                "shard": self.spec.shard_id,
                "pid": os.getpid(),
                "runtime": self.spec.runtime,
                "direct_port": self.spec.direct_port,
                "recovered": (
                    self.dispatcher.counters.get("recovered")
                    if self.dispatcher is not None
                    else 0
                ),
            },
            sort_keys=True,
        )


def main(argv: list[str] | None = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 1:
        print("usage: python -m repro.shard.worker '<spec json>'",
              file=sys.stderr)
        return 2
    text = argv[0]
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            text = handle.read()
    spec = ShardSpec.from_json(text)

    stop_event = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop_event.set())
    signal.signal(signal.SIGINT, lambda *_: stop_event.set())

    worker = ShardWorker(spec).start()
    print(worker.ready_line(), flush=True)
    try:
        stop_event.wait()
    finally:
        worker.stop(drain=True, timeout=5.0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

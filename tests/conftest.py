"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import contextlib
import time

import pytest
from hypothesis import settings

from repro.simnet.kernel import Simulator
from repro.simnet.topology import Network
from repro.transport.inproc import InprocNetwork
from repro.workload.echo import AsyncEchoService
from repro.wsa import AddressingHeaders


# -- Hypothesis randomness, decided once ------------------------------------
#
# Tier-1 is deterministic: every property test replays the same examples on
# every run (each ``@settings`` site keeps its own ``max_examples``).  The
# non-blocking ``fuzz`` CI job selects the random profile with
# ``--hypothesis-profile fuzz`` — the plugin loads it after this file — and
# runs the same properties under ten seeds, so a fuzz find becomes a PR
# instead of a red main.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("fuzz", derandomize=False)
settings.load_profile("tier1")


# -- waiting on other threads -----------------------------------------------


def wait_for(predicate, timeout: float = 5.0) -> bool:
    """Poll ``predicate`` on the wall clock until it holds (True) or
    ``timeout`` seconds have passed (False): for state that another
    thread or process moves."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


@contextlib.asynccontextmanager
async def serving(server):
    """An :class:`~repro.aio.AioHttpServer` started for the block and
    stopped after it."""
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


@pytest.fixture
def own_sinks():
    """A fresh process-wide metrics registry and trace store for one test:
    the components that take no ``metrics=`` / ``traces=`` record there."""
    from repro.obs import (
        MetricsRegistry,
        TraceStore,
        set_default_registry,
        set_default_trace_store,
    )

    metrics, traces = MetricsRegistry(), TraceStore()
    previous = set_default_registry(metrics), set_default_trace_store(traces)
    yield metrics, traces
    set_default_registry(previous[0])
    set_default_trace_store(previous[1])


@pytest.fixture
def inproc() -> InprocNetwork:
    """A fresh in-process transport namespace."""
    return InprocNetwork()


@pytest.fixture
def sim() -> Simulator:
    """A fresh discrete-event simulator."""
    return Simulator()


@pytest.fixture
def simnet(sim: Simulator) -> Network:
    """A fresh simulated network on the ``sim`` fixture."""
    return Network(sim)


# -- what the dispatcher forwarded, as the service saw it ------------------


class RecordingEcho(AsyncEchoService):
    """An :class:`AsyncEchoService` that keeps the addressing headers of
    every request it is sent — what the dispatcher forwarded."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.requests: list[AddressingHeaders] = []

    def handle(self, envelope, ctx):
        self.requests.append(AddressingHeaders.from_envelope(envelope))
        return super().handle(envelope, ctx)


def epr_shape(epr) -> tuple:
    """An EPR as comparable data: address + (name, text) per property."""
    return epr.address, [(p.name, p.text) for p in epr.reference_properties]


# -- rt/aio backend parameterization ------------------------------------
#
# The threaded and asyncio dispatchers claim semantic equivalence; these
# fixtures make that claim executable by running the same test matrix
# (ordering, refusals, hold/retry, durable recovery, long-poll)
# against both backends through one synchronous facade.


class _SyncClientAdapter:
    """Presents a synchronous (test fake or rt) HTTP client to the aio
    dispatcher: same calls, awaitable where the dispatcher awaits."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def prepare(self, url, request):
        return self.inner.prepare(url, request)

    async def request(self, url, request):
        return self.inner.request(url, request)

    async def pipeline(self, url, requests):
        return self.inner.pipeline(url, requests)

    def close(self) -> None:
        self.inner.close()


class DispatcherBackend:
    """Constructs a threaded or event-loop dispatcher behind one API."""

    def __init__(self, kind: str) -> None:
        self.kind = kind  # rt | aio | rt-sharded | aio-sharded | sim
        self.loop_thread = None
        if kind.startswith("aio"):
            from repro.aio import AioLoopThread

            self.loop_thread = AioLoopThread(name=f"test-{kind}-loop").start()

    def make_dispatcher(self, registry, client, then=None, **kwargs):
        """``then(dispatcher)`` runs right behind the constructor, where the
        constructor ran: for aio in the same loop step, before any task
        the constructor scheduled has had a turn."""
        then = then or (lambda dispatcher: None)
        if self.kind.endswith("-sharded"):
            # a one-shard ring owns everything: the ownership rule runs on
            # every routing pass and never relays
            from repro.shard import HashRing

            kwargs.update(shard_id=0, ring=HashRing(1), peers={0: "http://wsd:8000"})
        if self.kind.startswith("rt"):
            from repro.core.msg_dispatcher import MsgDispatcher

            dispatcher = MsgDispatcher(registry, client, **kwargs)
            then(dispatcher)
            return dispatcher
        from repro.aio import AioHttpClient, AioMsgDispatcher

        if not isinstance(client, AioHttpClient):
            client = _SyncClientAdapter(client)

        async def build():
            dispatcher = AioMsgDispatcher(registry, client, **kwargs)
            then(dispatcher)
            return dispatcher

        return self.loop_thread.run(build())

    def call(self, fn):
        """``fn()`` on the thread this backend's HTTP edge calls ``handle``
        on: the caller's own for rt (any worker will do), the loop's for
        aio."""
        if self.loop_thread is None:
            return fn()

        async def on_loop():
            return fn()

        return self.loop_thread.run(on_loop())

    def close(self) -> None:
        if self.loop_thread is not None:
            self.loop_thread.stop()
            self.loop_thread = None


@pytest.fixture(params=["rt", "aio"])
def dispatcher_backend(request) -> DispatcherBackend:
    backend = DispatcherBackend(request.param)
    yield backend
    backend.close()


class MsgBoxBackend:
    """Serves a WS-MsgBox on the threaded or asyncio runtime."""

    def __init__(self, kind: str, inproc: InprocNetwork) -> None:
        self.kind = kind
        self.inproc = inproc
        self.loop_thread = None
        self._servers = []
        self._clients = []
        if kind == "aio":
            from repro.aio import AioLoopThread

            self.loop_thread = AioLoopThread(name="test-msgbox-loop").start()

    def serve(self, store=None, **service_kw):
        """Start a mailbox service; returns (store, service, MsgBoxClient)."""
        from repro.msgbox import MailboxStore, MsgBoxClient
        from repro.rt.client import HttpClient
        from repro.rt.service import SoapHttpApp

        store = store if store is not None else MailboxStore()
        app = SoapHttpApp()
        if self.kind == "rt":
            from repro.msgbox import MsgBoxService
            from repro.rt.server import HttpServer

            service = MsgBoxService(store, **service_kw)
            app.mount("/mailbox", service)
            server = HttpServer(
                self.inproc.listen("mb:8500"), app.handle_request, workers=8
            ).start()
            self._servers.append(server)
            http = HttpClient(self.inproc)
        else:
            from repro.aio import AioHttpServer, AioMsgBoxService
            from repro.transport.tcp import TcpConnector

            service = AioMsgBoxService(store, **service_kw)
            app.mount("/mailbox", service)

            async def boot():
                srv = AioHttpServer(app.handle_request)
                await srv.start()
                return srv

            server = self.loop_thread.run(boot())
            self._servers.append(server)
            http = HttpClient(TcpConnector())
        self._clients.append(http)
        url = (
            "http://mb:8500/mailbox"
            if self.kind == "rt"
            else server.url + "/mailbox"
        )
        service.base_url = url
        return store, service, MsgBoxClient(http, url)

    def close(self) -> None:
        for server in self._servers:
            if self.kind == "rt":
                server.stop()
            else:
                self.loop_thread.run(server.stop())
        for client in self._clients:
            client.close()
        if self.loop_thread is not None:
            self.loop_thread.stop()
            self.loop_thread = None


@pytest.fixture(params=["rt", "aio"])
def msgbox_backend(request, inproc) -> MsgBoxBackend:
    backend = MsgBoxBackend(request.param, inproc)
    yield backend
    backend.close()

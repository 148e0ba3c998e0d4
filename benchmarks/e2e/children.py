"""The two child processes of a real workload.

``wsd`` is the system under test: registry + MSG-Dispatcher + WS-MsgBox +
RPC-Dispatcher behind one HTTP server, threaded or asyncio, with shipped
defaults for metrics, tracing and every knob except the pool sizes.
``harness-ws`` is its world: the echo services the dispatcher forwards to
and a counting sink.  CPU and memory are read for the ``wsd`` pid only,
so the world's cost never hides a dispatcher change.

Run as ``python children.py <role> '<spec json>'``.  A child prints one
ready line of JSON on stdout, serves until SIGTERM, and exits on its own
when stdin reaches EOF, so a launcher that dies (even by SIGKILL) never
leaves it behind.  Both are built only from public ``repro.*`` names.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import threading
import time

from repro.core import MsgDispatcher, MsgDispatcherConfig, RpcDispatcher, ServiceRegistry
from repro.http import Headers, HttpResponse
from repro.msgbox import MsgBoxService
from repro.obs.http import Introspection
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import SoapHttpApp
from repro.transport.tcp import TcpConnector, TcpListener
from repro.util.ids import IdGenerator
from repro.workload.echo import AsyncEchoService, EchoService
from repro.wsa import AddressingHeaders

RUNTIMES = ("threaded", "aio")


def _json_response(payload) -> HttpResponse:
    headers = Headers()
    headers.set("Content-Type", "application/json")
    return HttpResponse(status=200, headers=headers, body=json.dumps(payload).encode())


def _query(target: str) -> dict[str, str]:
    query = target.partition("?")[2]
    return dict(pair.split("=", 1) for pair in query.split("&") if "=" in pair)


# -- the system under test ---------------------------------------------------

class CallCounter:
    """Counts Python-level calls in every thread (``sys.setprofile``).

    Installed before the stack is built, so threads the stack starts
    inherit it.  Per-thread tallies avoid a shared read-modify-write."""

    def __init__(self) -> None:
        self._tallies: list[list[int]] = []
        self._local = threading.local()
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def _hook(self, frame, event, arg) -> None:
        if event != "call":
            return
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = [0]
            self._tallies.append(tally)
        tally[0] += 1

    def total(self) -> int:
        return sum(t[0] for t in list(self._tallies))


def _front(app: SoapHttpApp, rpc: RpcDispatcher):
    def front(request, peer=None):
        if request.target.startswith("/rpc"):
            return rpc.handle_request(request, peer)
        return app.handle_request(request, peer)

    return front


def start_wsd(spec: dict):
    """Build and start the system under test; returns (port, stop)."""
    runtime = spec["runtime"]
    if runtime not in RUNTIMES:
        raise ValueError(f"runtime must be one of {RUNTIMES}, not {runtime!r}")
    calls = CallCounter() if spec.get("count_calls") else None
    registry = ServiceRegistry()
    for logical, physical in spec["services"].items():
        registry.register(logical, physical)
    config = MsgDispatcherConfig(cx_threads=2, ws_threads=4)
    app = SoapHttpApp()
    Introspection().mount(app)
    if calls is not None:
        app.mount_page("/bench/pycalls", lambda req: _json_response({"calls": calls.total()}))
    rpc_client = HttpClient(TcpConnector())
    rpc = RpcDispatcher(registry, rpc_client)

    if runtime == "threaded":
        listener = TcpListener("127.0.0.1:0")
        port = listener.endpoint.port
        base = f"http://127.0.0.1:{port}"
        client = HttpClient(TcpConnector())
        dispatcher = MsgDispatcher(registry, client, own_address=f"{base}/msg", config=config)
        app.mount("/msg", dispatcher)
        app.mount("/mailbox", MsgBoxService(base_url=f"{base}/mailbox"))
        server = HttpServer(listener, _front(app, rpc), workers=8).start()

        def stop() -> None:
            dispatcher.stop()
            server.stop()
            client.close()
            rpc_client.close()

        return port, stop

    from repro.aio import (
        AioHttpClient, AioHttpServer, AioLoopThread, AioMsgBoxService, AioMsgDispatcher,
    )

    # the dispatcher needs its own address before the server exists
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    base = f"http://127.0.0.1:{port}"
    loop_thread = AioLoopThread(name="wsd-loop").start()

    async def boot():
        dispatcher = AioMsgDispatcher(
            registry, AioHttpClient(), own_address=f"{base}/msg", config=config
        )
        app.mount("/msg", dispatcher)
        app.mount("/mailbox", AioMsgBoxService(base_url=f"{base}/mailbox"))
        server = await AioHttpServer(_front(app, rpc), sock=sock).start()
        return dispatcher, server

    dispatcher, server = loop_thread.run(boot())

    def stop() -> None:
        dispatcher.stop()
        loop_thread.run(server.stop())
        loop_thread.stop()
        rpc_client.close()

    return port, stop


# -- the world ---------------------------------------------------------------

class Stamps:
    """Harness-side span stamps (CLOCK_MONOTONIC, shared with the loadgen),
    kept in memory and handed over when the traced pass ends."""

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._arrive: dict[str, float] = {}
        self._reply: dict[str, float] = {}

    def arrive(self, message_id: str, t: float) -> None:
        with self._lock:
            self._arrive[message_id] = t

    def reply(self, message_id: str, t: float) -> None:
        with self._lock:
            self._reply[message_id] = t

    def drain(self) -> dict:
        with self._lock:
            out = {"arrive": self._arrive, "reply": self._reply}
            self._arrive, self._reply = {}, {}
        return out


class _StampingClient(HttpClient):
    """The echo service's reply client: stamps the moment the reply POST
    starts, keyed by the request it answers."""

    def __init__(self, stamps: Stamps) -> None:
        super().__init__(TcpConnector())
        self._stamps = stamps

    def post_envelope(self, url, envelope):
        if self._stamps.enabled:
            relates = AddressingHeaders.from_envelope(envelope).relates_to
            if relates:
                self._stamps.reply(relates[0], time.monotonic())
        return super().post_envelope(url, envelope)


class _StampedEcho:
    def __init__(self, inner: AsyncEchoService, stamps: Stamps) -> None:
        self._inner = inner
        self._stamps = stamps

    def handle(self, envelope, ctx):
        if self._stamps.enabled:
            t = time.monotonic()
            message_id = AddressingHeaders.from_envelope(envelope).message_id
            if message_id:
                self._stamps.arrive(message_id, t)
        return self._inner.handle(envelope, ctx)


class Sink:
    """Counts one-way arrivals without parsing them; ``wait`` blocks until
    a target count is reached."""

    _MSGID_OPEN = b"MessageID>"

    def __init__(self, stamps: Stamps) -> None:
        self._stamps = stamps
        self._cond = threading.Condition()
        self.count = 0
        self.last_arrival = 0.0

    def post(self, request) -> HttpResponse:
        t = time.monotonic()
        if self._stamps.enabled:
            body = request.body
            start = body.find(self._MSGID_OPEN)
            if start >= 0:
                start += len(self._MSGID_OPEN)
                self._stamps.arrive(body[start:body.find(b"<", start)].decode(), t)
        with self._cond:
            self.count += 1
            self.last_arrival = t
            self._cond.notify_all()
        return HttpResponse(status=202)

    def wait(self, n: int, timeout: float) -> dict:
        with self._cond:
            self._cond.wait_for(lambda: self.count >= n, timeout)
            return {"count": self.count, "last_arrival": self.last_arrival}


def start_harness_ws(spec: dict):
    """Start the echo services and the sink; returns (port, stop)."""
    stamps = Stamps()
    sink = Sink(stamps)
    reply_client = _StampingClient(stamps)
    app = SoapHttpApp()
    app.mount("/echo-rpc", EchoService())
    echo = AsyncEchoService(reply_client, ids=IdGenerator("reply", seed=spec.get("seed", 0)))
    app.mount("/echo-msg", _StampedEcho(echo, stamps))

    def sink_page(request) -> HttpResponse:
        args = _query(request.target)
        return _json_response(sink.wait(int(args.get("n", 0)), float(args.get("timeout", 0))))

    def stamps_page(request) -> HttpResponse:
        args = _query(request.target)
        if "enable" in args:
            stamps.enabled = args["enable"] == "1"
        return _json_response(stamps.drain())

    app.mount_raw("/sink", sink.post)
    app.mount_page("/sink", sink_page)
    app.mount_page("/stamps", stamps_page)
    listener = TcpListener("127.0.0.1:0")
    server = HttpServer(listener, app.handle_request, workers=8).start()

    def stop() -> None:
        server.stop()
        reply_client.close()

    return listener.endpoint.port, stop


# -- process entry -----------------------------------------------------------

ROLES = {"wsd": start_wsd, "harness-ws": start_harness_ws}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ROLES:
        print("usage: children.py <wsd|harness-ws> '<spec json>'", file=sys.stderr)
        return 2
    done = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: done.set())
    signal.signal(signal.SIGINT, lambda *_: done.set())

    def watch_stdin() -> None:
        while os.read(0, 4096):  # returns b"" at EOF: the launcher is gone
            pass
        done.set()

    threading.Thread(target=watch_stdin, name="stdin-watch", daemon=True).start()
    port, stop = ROLES[argv[0]](json.loads(argv[1]))
    print(json.dumps({"ready": True, "port": port, "pid": os.getpid()}), flush=True)
    done.wait()
    stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

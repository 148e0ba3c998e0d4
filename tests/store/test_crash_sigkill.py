"""The acceptance scenario, for real: SIGKILL a durable dispatcher
process mid-drain, restart from its journal file, and verify the sink
absorbs every accepted message exactly once."""

import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

from repro.core.msg_dispatcher import MsgDispatcher, MsgDispatcherConfig
from repro.core.registry import ServiceRegistry
from repro.errors import ReproError
from repro.http import HttpRequest, HttpResponse
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.soap import Envelope
from repro.store import MessageJournal
from repro.transport.tcp import TcpConnector, TcpListener
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message
from repro.wsa import AddressingHeaders
from tests.conftest import wait_for

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
_CHILD = pathlib.Path(__file__).with_name("_crash_child.py")

MESSAGES = 12


class _Sink:
    """Records every arriving MessageID; 202s everything parseable."""

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.lock = threading.Lock()
        self.arrivals = 0
        self.unique: set[str] = set()

    def handler(self, request: HttpRequest, peer=None) -> HttpResponse:
        try:
            envelope = Envelope.from_bytes(request.body)
            mid = AddressingHeaders.from_envelope(envelope).message_id
        except ReproError:
            return HttpResponse(status=400)
        if self.delay:
            time.sleep(self.delay)
        with self.lock:
            self.arrivals += 1
            if mid:
                self.unique.add(mid)
        return HttpResponse(status=202)


def test_sigkill_mid_drain_recovers_all_messages_exactly_once(tmp_path):
    journal_path = str(tmp_path / "crash.journal")
    sink = _Sink(delay=0.2)  # slow sink keeps a backlog at kill time
    sink_listener = TcpListener("127.0.0.1:0")
    sink_server = HttpServer(sink_listener, sink.handler, workers=1).start()

    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    child = subprocess.Popen(
        [
            sys.executable, str(_CHILD),
            journal_path, str(sink_listener.endpoint.port),
        ],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        port_line = child.stdout.readline().strip()
        assert port_line, "child never reported its port"
        port = int(port_line)

        client = HttpClient(TcpConnector())
        ids = IdGenerator("sigkill", seed=13)
        sent = []
        for _ in range(MESSAGES):
            mid = ids.next()
            msg = make_echo_message(to="urn:wsd:echo", message_id=mid)
            resp = client.post_envelope(
                f"http://127.0.0.1:{port}/msg/echo", msg
            )
            # 202 means the record hit the journal before the ack
            assert resp.status == 202
            sent.append(mid)
        client.close()

        # kill the process the moment a couple of deliveries landed —
        # the rest of the backlog dies with it
        assert wait_for(lambda: sink.arrivals >= 2, timeout=30.0)
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=10)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=10)

    killed_with = len(sink.unique)
    assert killed_with < MESSAGES, "nothing left to recover — died too late"

    # the restarted incarnation: same journal file, fresh everything else
    sink.delay = 0.0
    registry = ServiceRegistry()
    registry.register(
        "echo", f"http://127.0.0.1:{sink_listener.endpoint.port}/echo"
    )
    journal = MessageJournal(journal_path, sync="always")
    dispatcher = MsgDispatcher(
        registry,
        HttpClient(TcpConnector()),
        own_address="http://127.0.0.1:0/msg",
        config=MsgDispatcherConfig(cx_threads=2, ws_threads=2),
        durable=journal,
    )
    try:
        assert wait_for(lambda: sink.unique == set(sent), timeout=30.0)
        # zero loss: every accepted message arrived; exactly-once at the
        # sink: the unique set absorbed each mid once (redeliveries of
        # unmarked-but-delivered records are allowed on the wire)
        assert len(sink.unique) == MESSAGES
        assert dispatcher.stats.get("recovered", 0) >= MESSAGES - killed_with
        assert dispatcher.stop(drain=True) is True
        assert journal.pending_count() == 0
    finally:
        dispatcher.stop()
        journal.close()
        sink_server.stop()

"""The routing seam: a MsgDispatcher given a ring relays what it doesn't own.

These are single-process tests — one real dispatcher, plain HTTP sinks
standing in for the peer shard and the local service — exercising the
ownership decision without a supervisor or subprocesses.
"""

import threading
import time

import pytest

from repro.core.msg_dispatcher import MsgDispatcher, MsgDispatcherConfig
from repro.core.registry import ServiceRegistry
from repro.http import HttpResponse
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import RequestContext
from repro.shard import HashRing
from repro.soap import Envelope
from repro.transport.tcp import TcpConnector, TcpListener
from repro.wsa import AddressingHeaders
from repro.workload.echo import make_echo_message


class _Recorder:
    """An HTTP sink recording every envelope path it absorbs."""

    def __init__(self):
        self.paths = []
        self._lock = threading.Lock()
        self.server = HttpServer(
            TcpListener("127.0.0.1:0"), self._handle, workers=4
        ).start()
        self.url = self.server.url

    def _handle(self, request, peer):
        with self._lock:
            self.paths.append(request.target)
        return HttpResponse(status=202)

    def stop(self):
        self.server.stop()

    def wait_for(self, n, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if len(self.paths) >= n:
                    return True
            time.sleep(0.01)
        return False


@pytest.fixture
def seam():
    ring = HashRing(2)
    local = _Recorder()   # the service this shard owns
    peer = _Recorder()    # stands in for shard 1's direct endpoint
    registry = ServiceRegistry(metrics=MetricsRegistry())
    metrics = MetricsRegistry()
    dispatcher = MsgDispatcher(
        registry,
        HttpClient(TcpConnector()),
        "http://127.0.0.1:9/msg",
        config=MsgDispatcherConfig(cx_threads=1, ws_threads=2),
        metrics=metrics,
        traces=TraceStore(enabled=False),
        shard_id=0,
        ring=ring,
        peers={0: "http://127.0.0.1:9", 1: peer.url},
    )
    yield ring, registry, dispatcher, local, peer, metrics
    dispatcher.stop()
    local.stop()
    peer.stop()


def _logical_owned_by(ring, shard_id):
    for i in range(200):
        if ring.owner(f"svc{i}") == shard_id:
            return f"svc{i}"
    raise AssertionError("ring never hashed a name to this shard")


def test_owned_message_is_delivered_locally(seam):
    ring, registry, dispatcher, local, peer, _ = seam
    mine = _logical_owned_by(ring, 0)
    registry.register(mine, f"{local.url}/{mine}")
    envelope = make_echo_message(to=f"urn:wsd:{mine}", message_id="m-own")
    dispatcher.handle(envelope, RequestContext(path=f"/msg/{mine}"))
    assert local.wait_for(1)
    assert peer.paths == []


def test_foreign_message_is_relayed_to_owner(seam):
    ring, registry, dispatcher, local, peer, metrics = seam
    theirs = _logical_owned_by(ring, 1)
    # deliberately resolvable locally: ownership must win over resolution
    registry.register(theirs, f"{local.url}/{theirs}")
    envelope = make_echo_message(to=f"urn:wsd:{theirs}", message_id="m-rel")
    dispatcher.handle(envelope, RequestContext(path=f"/msg/{theirs}"))
    assert peer.wait_for(1)
    assert peer.paths == [f"/msg/{theirs}"]
    assert local.paths == []
    assert dispatcher.stats.get("relayed_out") == 1
    text = metrics.render_prometheus()
    assert 'shard_relay_total{direction="out"} 1' in text


def test_relayed_envelope_is_byte_identical(seam):
    """The relay forwards the original envelope — same MessageID — so
    the owning shard's dedupe window still catches duplicates."""
    ring, registry, dispatcher, local, peer, _ = seam
    theirs = _logical_owned_by(ring, 1)
    bodies = []

    # swap the peer recorder's handler to capture bodies
    def capture(request, _peer):
        bodies.append(request.body)
        return HttpResponse(status=202)

    peer.server._handler = capture
    envelope = make_echo_message(to=f"urn:wsd:{theirs}", message_id="m-bytes")
    dispatcher.handle(envelope, RequestContext(path=f"/msg/{theirs}"))
    deadline = time.monotonic() + 10
    while not bodies and time.monotonic() < deadline:
        time.sleep(0.01)
    assert bodies
    relayed = AddressingHeaders.from_envelope(Envelope.from_bytes(bodies[0]))
    assert relayed.message_id == "m-bytes"


def test_responses_are_never_relayed(seam):
    """RelatesTo traffic correlates at whichever shard sent the request;
    own_address is the shard's direct URL, so responses arrive owned by
    construction and must not bounce to the ring owner."""
    ring, registry, dispatcher, local, peer, _ = seam
    theirs = _logical_owned_by(ring, 1)
    registry.register(theirs, f"{local.url}/{theirs}")
    envelope = make_echo_message(to=f"urn:wsd:{theirs}", message_id="m-resp")
    headers = AddressingHeaders.from_envelope(envelope)
    headers.relates_to.append("m-original-request")
    headers.attach(envelope)
    dispatcher.handle(envelope, RequestContext(path=f"/msg/{theirs}"))
    assert local.wait_for(1)
    assert peer.paths == []
    assert not dispatcher.stats.get("relayed_out")


def test_unsharded_ring_never_relays(seam):
    """shards=1 collapses to the plain dispatcher: no peers, no relays."""
    _, _, _, local, _, _ = seam
    ring = HashRing(1)
    registry = ServiceRegistry(metrics=MetricsRegistry())
    dispatcher = MsgDispatcher(
        registry,
        HttpClient(TcpConnector()),
        "http://127.0.0.1:9/msg",
        config=MsgDispatcherConfig(cx_threads=1, ws_threads=2),
        metrics=MetricsRegistry(),
        traces=TraceStore(enabled=False),
        shard_id=0,
        ring=ring,
        peers={0: "http://127.0.0.1:9"},
    )
    try:
        registry.register("solo", f"{local.url}/solo")
        envelope = make_echo_message(to="urn:wsd:solo", message_id="m-solo")
        dispatcher.handle(envelope, RequestContext(path="/msg/solo"))
        assert local.wait_for(1)
        assert not dispatcher.stats.get("relayed_out")
    finally:
        dispatcher.stop()

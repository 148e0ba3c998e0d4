"""End-to-end: a supervised fleet behind one shared data endpoint.

Every test here forks real worker subprocesses (``python -m
repro.shard.worker``), posts real envelopes at the shared port, and
reads the supervisor's aggregated control plane.
"""

import json
import threading
import time

import pytest

from repro.http import HttpRequest, HttpResponse
from repro.obs import parse_exposition
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.shard import ShardSupervisor, SupervisorConfig
from repro.soap import Envelope
from repro.transport.tcp import TcpConnector, TcpListener
from repro.workload.echo import make_echo_message
from repro.wsa import AddressingHeaders

LOGICALS = [f"svc{i}" for i in range(4)]


class _Sink:
    """Counts unique MessageIDs of every envelope it absorbs."""

    def __init__(self, delay: float = 0.0, workers: int = 8):
        self.mids: set[str] = set()
        self.arrivals = 0
        self._delay = delay
        self._lock = threading.Lock()
        self.server = HttpServer(
            TcpListener("127.0.0.1:0"), self._handle, workers=workers
        ).start()
        self.url = self.server.url

    def _handle(self, request, peer):
        if self._delay:
            time.sleep(self._delay)
        headers = AddressingHeaders.from_envelope(
            Envelope.from_bytes(request.body)
        )
        with self._lock:
            self.arrivals += 1
            if headers.message_id:
                self.mids.add(headers.message_id)
        return HttpResponse(status=202)

    def wait_for_unique(self, n, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if len(self.mids) >= n:
                    return True
            time.sleep(0.02)
        return False

    def stop(self):
        self.server.stop()


def _get(client, base, path):
    response = client.request(base + path, HttpRequest("GET", path))
    assert response.status == 200, (path, response.status)
    return response.body


def _config(**overrides):
    base = dict(
        shards=2, ws_threads=4, server_workers=8, ready_timeout=30.0
    )
    base.update(overrides)
    return SupervisorConfig(**base)


def _post_all(supervisor, count):
    with HttpClient(TcpConnector()) as client:
        for i in range(count):
            logical = LOGICALS[i % len(LOGICALS)]
            envelope = make_echo_message(
                to=f"urn:wsd:{logical}", message_id=f"m-{i}"
            )
            response = client.post_envelope(
                f"{supervisor.data_url}/msg/{logical}", envelope
            )
            assert response.status == 202


@pytest.mark.parametrize("runtime", ["threaded", "aio"])
def test_fleet_delivers_and_aggregates(runtime):
    sink = _Sink()
    registry = {name: f"{sink.url}/{name}" for name in LOGICALS}
    try:
        with ShardSupervisor(registry, _config(runtime=runtime)) as sup:
            owners = {sup.owner_of(name) for name in LOGICALS}
            _post_all(sup, 40)
            assert sink.wait_for_unique(40), (
                f"only {len(sink.mids)} of 40 delivered"
            )

            with HttpClient(TcpConnector()) as client:
                metrics_text = _get(client, sup.control_url, "/metrics").decode()
                health = json.loads(_get(client, sup.control_url, "/health"))
                slo = json.loads(_get(client, sup.control_url, "/slo"))

            # merged exposition: the fleet's accepted counter covers all 40
            # admissions (plus any cross-shard relay re-admissions)
            families = parse_exposition(metrics_text)
            accepted = sum(
                value
                for _name, _labels, value
                in families["msgd_accepted_total"].samples
            )
            assert accepted >= 40
            if owners == {0, 1}:  # both shards own traffic: relays happened
                assert "shard_relay_total" in families

            assert health["status"] == "ok"
            assert set(health["shards"]) == {"0", "1"}
            assert health["supervisor"]["restarts"] == {"0": 0, "1": 0}
            assert set(slo["shards"]) == {"0", "1"}
    finally:
        sink.stop()


def test_start_refuses_a_host_without_reuseport(monkeypatch):
    monkeypatch.setattr(
        "repro.shard.supervisor.reuse_port_supported", lambda: False
    )
    sup = ShardSupervisor({"svc0": "http://127.0.0.1:9/svc0"}, _config())
    with pytest.raises(RuntimeError, match="SO_REUSEPORT is not supported"):
        sup.start()
    assert sup.pids() == {}  # nothing was spawned


class _Forbidden:
    """Stands in for a module the code under test must not touch."""

    def __init__(self, what):
        self.what = what

    def __getattr__(self, name):
        raise AssertionError(f"{self.what}.{name} was used")


def test_a_mistyped_runtime_is_refused_before_a_port_or_a_process(monkeypatch):
    """A worker would die of an unknown runtime on its own stderr, and the
    supervisor would report a missed ready_timeout instead of the cause."""
    monkeypatch.setattr("repro.shard.supervisor.socket", _Forbidden("socket"))
    monkeypatch.setattr(
        "repro.shard.supervisor.subprocess", _Forbidden("subprocess")
    )
    with pytest.raises(ValueError, match="unknown shard runtime 'asyncio'"):
        ShardSupervisor(
            {"svc0": "http://127.0.0.1:9/svc0"},
            SupervisorConfig(shards=2, runtime="asyncio"),
        ).start()


def test_single_shard_fleet_still_works():
    """shards=1 must behave exactly like one plain dispatcher deployment."""
    sink = _Sink()
    registry = {name: f"{sink.url}/{name}" for name in LOGICALS}
    try:
        with ShardSupervisor(registry, _config(shards=1)) as sup:
            _post_all(sup, 12)
            assert sink.wait_for_unique(12)
            with HttpClient(TcpConnector()) as client:
                text = _get(client, sup.control_url, "/metrics").decode()
            assert "shard_relay_total" not in text
    finally:
        sink.stop()

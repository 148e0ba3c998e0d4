"""Anti-entropy gossip between registry peers.

One *round* is a push-pull digest exchange initiated by replica A against
peer B, needing at most two POSTs:

1. A sends its digest (``{"peer", "vv"}``).  B replies with its own
   vector plus every entry A's vector does not dominate.
2. A merges the reply.  If A now holds stamps *B* lacks, A POSTs them;
   B merges and replies with its updated vector.

After a round the initiator compares vectors: equality means the pair is
converged (flight event ``gossip-converged`` on the divergent→converged
edge).  Transport failures flip the peer's health edge (``replica-down``
/ ``replica-rejoin`` events) and feed ``registry_gossip_lag_seconds``.

The wire format is deterministic JSON (sorted keys, entries sorted by
logical name) on the operator plane — like span reports, gossip is
co-operating-process traffic that lives next to ``/metrics``, not on the
SOAP message path.  :class:`GossipHandler` is a replica's socket
endpoint; :class:`SimGossipPeer` is the one periodic driver, a simulation
process over :class:`~repro.simnet.httpsim.SimHttpClientPool`; the
sans-io round (:func:`run_round_steps`) plus :func:`sync_pair` drive the
same state machine in-process for tests and benchmarks.
"""

from __future__ import annotations

import json
import random
import threading
import time

from repro.core.registry import ServiceRegistry
from repro.errors import RegistryUnavailable, ReproError, TransportError
from repro.http import Headers, HttpRequest, HttpResponse
from repro.obs.flight import FlightRecorder, default_flight_recorder
from repro.obs.metrics import MetricsRegistry, default_registry

#: default mount path of a replica's gossip endpoint
GOSSIP_PATH = "/gossip"

GOSSIP_CONTENT_TYPE = "application/json; charset=utf-8"


# -- wire codec -------------------------------------------------------------
def encode_gossip(payload: dict) -> bytes:
    """Deterministic bytes: sorted keys, no hash-order dependence."""
    return json.dumps(payload, sort_keys=True).encode()


def decode_gossip(body: bytes) -> dict:
    """Parse and validate a gossip payload; raises ValueError when bad."""
    payload = json.loads(body.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("gossip payload must be a JSON object")
    if not isinstance(payload.get("peer"), str) or not payload["peer"]:
        raise ValueError("gossip payload needs a 'peer' name")
    vv = payload.get("vv")
    if not isinstance(vv, dict) or not all(
        isinstance(k, str) and isinstance(v, int) for k, v in vv.items()
    ):
        raise ValueError("gossip payload needs a {peer: lamport} 'vv'")
    entries = payload.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError("gossip 'entries' must be a list")
    return payload


def gossip_payload(replica: ServiceRegistry, entries: list[dict] | None = None) -> dict:
    payload = replica.digest()
    if entries:
        payload["entries"] = entries
    return payload


def handle_gossip(replica: ServiceRegistry, payload: dict) -> dict:
    """Responder side of one POST: merge what the sender pushed, reply
    with the sender's missing entries and our (updated) vector.

    A ``sync`` payload marks the round's second POST: its entries are
    exactly ``delta_for(our vv)``, so after applying them (even zero of
    them) we hold everything the sender has and may adopt its frontier —
    the step that lets the losing side of an LWW tie still be counted as
    seen."""
    replica.apply_delta(payload.get("entries") or [])  # refuses when down
    if payload.get("sync"):
        replica.merge_vv(payload.get("vv") or {})
    reply = replica.digest()
    reply["entries"] = replica.delta_for(payload.get("vv") or {})
    return reply


def run_round_steps(replica: ServiceRegistry):
    """Sans-io initiator round: a generator that yields request payloads
    and receives reply payloads via ``send()``; its return value is
    ``(converged, applied)``.

    The first reply carries everything our vector lacks, so merging it
    leaves us holding the responder's full state — we then adopt its
    frontier and push back what *it* lacks as a ``sync`` POST (sent even
    with zero entries whenever the vectors still differ, so the
    responder learns our frontier too)."""
    reply = yield gossip_payload(replica)
    applied = replica.apply_delta(reply.get("entries") or [])
    replica.merge_vv(reply.get("vv") or {})
    missing = replica.delta_for(reply.get("vv") or {})
    final = reply
    if missing or replica.vv != (reply.get("vv") or {}):
        payload = gossip_payload(replica, entries=missing)
        payload["sync"] = True
        final = yield payload
        applied += replica.apply_delta(final.get("entries") or [])
        replica.merge_vv(final.get("vv") or {})
    return replica.vv == (final.get("vv") or {}), applied


def drive_round(replica: ServiceRegistry, post) -> tuple[bool, int]:
    """Run one round through a synchronous ``post(payload) -> payload``."""
    steps = run_round_steps(replica)
    request = next(steps)
    try:
        while True:
            request = steps.send(post(request))
    except StopIteration as stop:
        return stop.value


def sync_pair(a: ServiceRegistry, b: ServiceRegistry) -> tuple[bool, int]:
    """One in-process anti-entropy round from ``a`` against ``b``."""
    return drive_round(a, lambda payload: handle_gossip(b, payload))


# -- the replica's HTTP endpoint -------------------------------------------
class GossipHandler:
    """POST handler serving a replica's gossip endpoint.

    Mount on a :class:`~repro.rt.service.SoapHttpApp` via
    ``app.mount_raw(GOSSIP_PATH, handler)`` or route to it from a simnet
    server wrapper.  200 with the reply payload, 400 for malformed
    gossip, 503 while the replica is unavailable (chaos fault)."""

    def __init__(
        self,
        replica: ServiceRegistry,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.replica = replica
        registry = metrics if metrics is not None else default_registry()
        requests = registry.counter(
            "registry_gossip_requests_total",
            "gossip exchanges served, by outcome",
        )
        self._m_ok = requests.labels(outcome="ok")
        self._m_bad = requests.labels(outcome="bad")
        self._m_refused = requests.labels(outcome="refused")

    def __call__(self, request: HttpRequest) -> HttpResponse:
        if request.method != "POST":
            return HttpResponse(status=405, body=b"gossip is POSTed")
        try:
            payload = decode_gossip(request.body)
        except (ValueError, UnicodeDecodeError) as exc:
            self._m_bad.inc()
            return HttpResponse(status=400, body=f"bad gossip: {exc}".encode())
        try:
            reply = handle_gossip(self.replica, payload)
        except RegistryUnavailable:
            self._m_refused.inc()
            return HttpResponse(status=503, body=b"replica unavailable")
        self._m_ok.inc()
        headers = Headers()
        headers.set("Content-Type", GOSSIP_CONTENT_TYPE)
        return HttpResponse(status=200, headers=headers, body=encode_gossip(reply))


def make_gossip_request(payload: dict, path: str = GOSSIP_PATH) -> HttpRequest:
    headers = Headers()
    headers.set("Content-Type", GOSSIP_CONTENT_TYPE)
    return HttpRequest("POST", path, headers=headers, body=encode_gossip(payload))


# -- shared round bookkeeping ----------------------------------------------
class GossipHealth:
    """Per-peer round accounting of a gossip driver.

    Owns the obs surface: ``registry_gossip_rounds_total{peer,outcome}``,
    the ``registry_gossip_lag_seconds{peer}`` gauge (seconds since the
    last successful exchange with that peer), and the flight-recorder
    edges ``replica-down`` / ``replica-rejoin`` / ``gossip-converged``.
    """

    def __init__(
        self,
        own_peer: str,
        peers: list[str],
        metrics: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
        now_fn=None,
    ) -> None:
        self.own_peer = own_peer
        self.now_fn = now_fn if now_fn is not None else time.monotonic
        self.metrics = metrics if metrics is not None else default_registry()
        self.flight = flight if flight is not None else default_flight_recorder()
        rounds = self.metrics.counter(
            "registry_gossip_rounds_total",
            "anti-entropy rounds initiated, by peer and outcome",
        )
        lag = self.metrics.gauge(
            "registry_gossip_lag_seconds",
            "seconds since the last successful exchange with the peer",
        )
        self._m_ok = {p: rounds.labels(peer=p, outcome="ok") for p in peers}
        self._m_fail = {p: rounds.labels(peer=p, outcome="fail") for p in peers}
        now = self.now_fn()
        self._lock = threading.Lock()
        self._up = {p: True for p in peers}
        self._converged = {p: False for p in peers}
        self._last_ok = {p: now for p in peers}
        self._rounds = {p: 0 for p in peers}
        self._failures = {p: 0 for p in peers}
        for p in peers:
            lag.labels(peer=p).set_function(
                lambda _p=p: max(0.0, self.now_fn() - self._last_ok[_p])
            )

    def note_ok(self, peer: str, converged: bool, applied: int) -> None:
        self._m_ok[peer].inc()
        with self._lock:
            self._rounds[peer] += 1
            self._last_ok[peer] = self.now_fn()
            rejoined = not self._up[peer]
            self._up[peer] = True
            newly_converged = converged and not self._converged[peer]
            self._converged[peer] = converged
        if rejoined:
            self.flight.record(
                "replica-rejoin", "registry", t=self.now_fn(),
                peer=peer, by=self.own_peer,
            )
        if newly_converged:
            self.flight.record(
                "gossip-converged", "registry", t=self.now_fn(),
                peer=peer, by=self.own_peer, applied=applied,
            )

    def note_fail(self, peer: str) -> None:
        self._m_fail[peer].inc()
        with self._lock:
            self._failures[peer] += 1
            went_down = self._up[peer]
            self._up[peer] = False
            self._converged[peer] = False
        if went_down:
            self.flight.record(
                "replica-down", "registry", t=self.now_fn(),
                peer=peer, by=self.own_peer,
            )

    def snapshot(self) -> dict:
        now = self.now_fn()
        with self._lock:
            return {
                peer: {
                    "up": self._up[peer],
                    "converged": self._converged[peer],
                    "lag_seconds": round(max(0.0, now - self._last_ok[peer]), 6),
                    "rounds": self._rounds[peer],
                    "failures": self._failures[peer],
                }
                for peer in sorted(self._up)
            }


# -- driver -----------------------------------------------------------------
class SimGossipPeer:
    """Simulation-process anti-entropy driver: every ``interval`` seconds
    pick one peer (seeded RNG) and run a round.  ``peers`` maps peer
    name → (host, port)."""

    def __init__(
        self,
        net,
        host,
        replica: ServiceRegistry,
        peers: dict[str, tuple[str, int]],
        interval: float = 0.5,
        seed: int | None = None,
        path: str = GOSSIP_PATH,
        metrics: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
        connect_timeout: float = 1.0,
        response_timeout: float = 2.0,
    ) -> None:
        from repro.simnet.httpsim import SimHttpClientPool

        self.sim = net.sim
        self.replica = replica
        self.peers = dict(peers)
        self.interval = interval
        self.path = path
        self._rng = random.Random(seed)
        self.health = GossipHealth(
            replica.peer_id, sorted(self.peers), metrics=metrics,
            flight=flight, now_fn=lambda: self.sim.now,
        )
        self.pool = SimHttpClientPool(
            net, host,
            connect_timeout=connect_timeout,
            response_timeout=response_timeout,
        )
        self._running = False

    def start(self) -> "SimGossipPeer":
        if not self._running:
            self._running = True
            self.sim.process(
                self._pump(), name=f"gossip-{self.replica.peer_id}"
            )
        return self

    def stop(self) -> None:
        self._running = False

    def _pump(self):
        while self._running:
            yield self.sim.timeout(self.interval)
            if not self._running:
                return
            if not self.replica.available or not self.peers:
                continue
            yield from self.round(self._rng.choice(sorted(self.peers)))

    def round(self, peer: str):
        """Generator: one round against ``peer``; yields sim events."""
        dest_host, dest_port = self.peers[peer]
        steps = run_round_steps(self.replica)
        request_payload = next(steps)
        try:
            while True:
                response = yield from self.pool.exchange(
                    dest_host, dest_port,
                    make_gossip_request(request_payload, self.path),
                )
                if response.status >= 300:
                    raise TransportError(f"HTTP {response.status} from {peer}")
                request_payload = steps.send(decode_gossip(response.body))
        except StopIteration as stop:
            converged, applied = stop.value
            self.health.note_ok(peer, converged, applied)
            return converged
        except (TransportError, ReproError, ValueError):
            self.health.note_fail(peer)
            return False

    def snapshot(self) -> dict:
        return {"peer": self.replica.peer_id, "peers": self.health.snapshot()}

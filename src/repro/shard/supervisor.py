"""The shard supervisor: N dispatcher worker processes, one endpoint.

This is the GIL escape.  One CPython process routes on one core no
matter how many threads it runs; the supervisor forks ``shards`` worker
*processes* (each a complete dispatcher deployment built from a
:class:`~repro.shard.spec.ShardSpec`) that share a single client-facing
data port via SO_REUSEPORT, while consistent hashing keeps every
destination's FIFO order, breaker state, and journal records in exactly
one process.

Supervision is deliberately boring: a monitor thread polls
``Popen.poll()``; a dead worker is respawned with *the same spec* —
same direct port, same journal file — so its journal replays and its
peers' relay retries reconnect, while the surviving shards never stop
draining.  On a full supervisor restart each worker likewise recovers
its own ``journal-shard<k>.db``; the supervisor reports the merged
pending picture (:func:`~repro.store.journal.merged_recovery_report`)
before any worker boots.

The control endpoint aggregates the fleet: ``GET /metrics`` scrapes
every worker's Prometheus exposition and serves the
:func:`~repro.obs.aggregate.merge_expositions` merge (plus the
supervisor's own restart/liveness families); ``GET /health`` and
``GET /slo`` nest each worker's JSON under its shard id.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from repro.http import HttpRequest
from repro.obs.aggregate import MergeError, merge_expositions
from repro.obs.flight import FlightRecorder
from repro.obs.http import _json_response, _text_response
from repro.obs.metrics import MetricsRegistry
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import SoapHttpApp
from repro.shard.ring import HashRing
from repro.shard.spec import RUNTIMES, ShardSpec
from repro.store.journal import merged_recovery_report, shard_journal_path
from repro.transport.base import Endpoint
from repro.transport.tcp import TcpConnector, TcpListener, reuse_port_supported

__all__ = ["SupervisorConfig", "ShardSupervisor"]


#: pause before respawning a dead worker (crash-loop damping)
RESTART_BACKOFF = 0.2
#: how often the monitor thread looks for dead workers
POLL_INTERVAL = 0.05


@dataclass
class SupervisorConfig:
    """Deployment geometry + knobs forwarded into every worker's spec."""

    shards: int = 2
    #: one of :data:`~repro.shard.spec.RUNTIMES`
    runtime: str = "threaded"
    data_host: str = "127.0.0.1"
    #: directory for per-shard journals; None runs the fleet non-durable
    journal_dir: str | None = None
    mount_prefix: str = "/msg"
    ws_threads: int = 8
    server_workers: int = 16
    batch_size: int = 8
    #: how long to wait for a worker's ready line at first boot
    ready_timeout: float = 20.0

    def __post_init__(self) -> None:
        # a worker would die of a bad runtime on its own stderr, and the
        # supervisor would only see it miss ready_timeout
        if self.runtime not in RUNTIMES:
            raise ValueError(f"unknown shard runtime {self.runtime!r}")
        if self.shards < 1:
            raise ValueError("need at least one shard")


class _Worker:
    """Bookkeeping for one spawned shard process."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.proc: subprocess.Popen | None = None
        self.ready = threading.Event()
        self.ready_info: dict = {}
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class ShardSupervisor:
    """Runs and supervises a sharded dispatcher deployment."""

    def __init__(
        self,
        registry: dict[str, str],
        config: SupervisorConfig | None = None,
    ) -> None:
        self.registry = dict(registry)
        self.config = config or SupervisorConfig()
        self.ring = HashRing(self.config.shards)
        self.metrics = MetricsRegistry()
        self.flight = FlightRecorder()
        self._workers: dict[int, _Worker] = {}
        self._peers: dict[int, str] = {}
        self._data_reservation: socket.socket | None = None
        self._data_endpoint: Endpoint | None = None
        self._control_server: HttpServer | None = None
        self._scrape_client: HttpClient | None = None
        self._monitor: threading.Thread | None = None
        self._running = False
        self._lock = threading.Lock()
        self.recovery_report: dict[int, int] = {}
        self._m_restarts = self.metrics.counter(
            "supervisor_restarts_total", "worker restarts, by shard"
        )
        self._m_up = self.metrics.gauge(
            "supervisor_shard_up", "1 while the shard process is alive"
        )
        self._m_scrape_errors = self.metrics.counter(
            "supervisor_scrape_errors_total",
            "failed worker introspection scrapes, by shard",
        )

    # -- addressing --------------------------------------------------------
    @property
    def data_endpoint(self) -> Endpoint:
        if self._data_endpoint is None:
            raise RuntimeError("supervisor is not started")
        return self._data_endpoint

    @property
    def data_url(self) -> str:
        return f"http://{self.data_endpoint}"

    @property
    def control_url(self) -> str:
        if self._control_server is None:
            raise RuntimeError("control endpoint is not running")
        return f"http://{self._control_server.endpoint}"

    def shard_urls(self) -> dict[int, str]:
        return dict(self._peers)

    def pids(self) -> dict[int, int | None]:
        return {
            shard_id: (worker.proc.pid if worker.proc else None)
            for shard_id, worker in self._workers.items()
        }

    def restart_counts(self) -> dict[int, int]:
        return {
            shard_id: worker.restarts
            for shard_id, worker in self._workers.items()
        }

    def owner_of(self, logical: str) -> int:
        return self.ring.owner(logical)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ShardSupervisor":
        cfg = self.config
        if not reuse_port_supported():
            raise RuntimeError("SO_REUSEPORT is not supported on this host")
        if cfg.journal_dir:
            os.makedirs(cfg.journal_dir, exist_ok=True)
            self.recovery_report = merged_recovery_report(cfg.journal_dir)
            pending = sum(n for n in self.recovery_report.values() if n > 0)
            if pending:
                self.flight.record(
                    "merged-recovery", "shardsup",
                    pending=pending, per_shard=dict(self.recovery_report),
                )

        # reserve the shared port for the supervisor's lifetime: a
        # bound-but-never-listening SO_REUSEPORT socket holds the
        # number (it never joins the TCP accept group, so it steals
        # no connections) while workers bind the same port
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((cfg.data_host, 0))
        self._data_reservation = sock
        self._data_endpoint = Endpoint(cfg.data_host, sock.getsockname()[1])

        direct_ports = {
            shard_id: _probe_free_port(cfg.data_host)
            for shard_id in range(cfg.shards)
        }
        self._peers = {
            shard_id: f"http://{cfg.data_host}:{port}"
            for shard_id, port in direct_ports.items()
        }
        for shard_id in range(cfg.shards):
            spec = self._make_spec(shard_id, direct_ports[shard_id])
            worker = _Worker(spec)
            self._workers[shard_id] = worker
            self._m_up.labels(shard=str(shard_id)).set_function(
                lambda w=worker: 1 if w.alive else 0
            )
        self._running = True
        for worker in self._workers.values():
            self._spawn(worker)
        deadline = time.monotonic() + cfg.ready_timeout
        for shard_id, worker in self._workers.items():
            remaining = max(0.1, deadline - time.monotonic())
            if not worker.ready.wait(remaining):
                self.stop()
                raise RuntimeError(
                    f"shard {shard_id} did not report ready within "
                    f"{cfg.ready_timeout}s"
                )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-monitor", daemon=True
        )
        self._monitor.start()
        self._scrape_client = HttpClient(TcpConnector())
        app = SoapHttpApp(metrics=self.metrics)
        app.mount_page("/metrics", self._metrics_page)
        app.mount_page("/health", self._health_page)
        app.mount_page("/slo", self._slo_page)
        self._control_server = HttpServer(
            TcpListener(Endpoint(cfg.data_host, 0)),
            app.handle_request, workers=4, name="shard-control",
            metrics=self.metrics,
        ).start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._running = False
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
            self._monitor = None
        for worker in self._workers.values():
            if worker.alive:
                worker.proc.terminate()
        deadline = time.monotonic() + timeout
        for worker in self._workers.values():
            if worker.proc is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                worker.proc.wait(remaining)
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait()
        if self._data_reservation is not None:
            self._data_reservation.close()
            self._data_reservation = None
        if self._control_server is not None:
            self._control_server.stop()
            self._control_server = None
        if self._scrape_client is not None:
            self._scrape_client.close()
            self._scrape_client = None

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- worker management -------------------------------------------------
    def _make_spec(self, shard_id: int, direct_port: int) -> ShardSpec:
        cfg = self.config
        journal_path = None
        if cfg.journal_dir:
            journal_path = shard_journal_path(cfg.journal_dir, shard_id)
        return ShardSpec(
            shard_id=shard_id,
            shards=cfg.shards,
            data_host=cfg.data_host,
            data_port=self.data_endpoint.port,
            direct_port=direct_port,
            peers=dict(self._peers),
            registry=dict(self.registry),
            mount_prefix=cfg.mount_prefix,
            runtime=cfg.runtime,
            journal_path=journal_path,
            ws_threads=cfg.ws_threads,
            server_workers=cfg.server_workers,
            batch_size=cfg.batch_size,
        )

    def _spawn(self, worker: _Worker) -> None:
        spec = worker.spec
        worker.ready = threading.Event()
        worker.ready_info = {}
        env = dict(os.environ)
        src_dir = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not existing else src_dir + os.pathsep + existing
        )
        worker.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.shard.worker", spec.to_json()],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        threading.Thread(
            target=self._read_worker_stdout,
            args=(worker, worker.proc),
            name=f"shard{spec.shard_id}-stdout",
            daemon=True,
        ).start()

    def _read_worker_stdout(
        self, worker: _Worker, proc: subprocess.Popen
    ) -> None:
        try:
            for line in proc.stdout:
                line = line.strip()
                if not line:
                    continue
                try:
                    info = json.loads(line)
                except ValueError:
                    continue
                if info.get("ready"):
                    worker.ready_info = info
                    worker.ready.set()
        except ValueError:
            pass  # stdout closed mid-read during shutdown

    def _monitor_loop(self) -> None:
        while self._running:
            time.sleep(POLL_INTERVAL)
            for shard_id, worker in list(self._workers.items()):
                if not self._running:
                    return
                if worker.proc is None or worker.alive:
                    continue
                returncode = worker.proc.returncode
                worker.restarts += 1
                self._m_restarts.labels(shard=str(shard_id)).inc()
                self.flight.record(
                    "shard-exit", "shardsup",
                    shard=shard_id, returncode=returncode,
                    restarts=worker.restarts,
                )
                time.sleep(RESTART_BACKOFF)
                if not self._running:
                    return
                # same spec: same direct port, same journal file — the
                # respawned worker recovers its own journal while its
                # peers' relay retries find it at the old address
                self._spawn(worker)

    # -- aggregated control plane -------------------------------------------
    def _scrape(self, path: str) -> tuple[dict[int, str], dict[int, str]]:
        """GET ``path`` from every worker: shard -> body, shard -> error."""
        bodies: dict[int, str] = {}
        errors: dict[int, str] = {}
        client = self._scrape_client
        for shard_id, base in self._peers.items():
            if client is None:
                errors[shard_id] = "control plane stopped"
                continue
            try:
                response = client.request(
                    base + path, HttpRequest("GET", path)
                )
                if response.status != 200:
                    raise RuntimeError(f"HTTP {response.status}")
                bodies[shard_id] = response.body.decode("utf-8")
            except Exception as exc:  # noqa: BLE001 - any scrape failure
                self._m_scrape_errors.labels(shard=str(shard_id)).inc()
                errors[shard_id] = str(exc)
        return bodies, errors

    def _metrics_page(self, request: HttpRequest):
        bodies, errors = self._scrape("/metrics")
        texts = [bodies[k] for k in sorted(bodies)]
        texts.append(self.metrics.render_prometheus())
        try:
            merged = merge_expositions(texts)
        except MergeError as exc:
            return _json_response(
                {"error": "metrics merge failed", "detail": str(exc)},
                status=500,
            )
        if errors:
            notes = "".join(
                f"# shard {k} scrape failed: {v}\n"
                for k, v in sorted(errors.items())
            )
            merged = notes + merged
        return _text_response(
            merged, content_type="text/plain; version=0.0.4; charset=utf-8"
        )

    def _fanout_json(self, path: str) -> dict:
        bodies, errors = self._scrape(path)
        shards: dict[str, object] = {}
        for shard_id, body in bodies.items():
            try:
                shards[str(shard_id)] = json.loads(body)
            except ValueError:
                shards[str(shard_id)] = {"unparseable": body[:200]}
        for shard_id, error in errors.items():
            shards[str(shard_id)] = {"error": error}
        return shards

    def _supervisor_section(self) -> dict:
        return {
            "shards": self.config.shards,
            "runtime": self.config.runtime,
            "data_endpoint": str(self._data_endpoint),
            "alive": {
                str(k): w.alive for k, w in self._workers.items()
            },
            "restarts": {
                str(k): w.restarts for k, w in self._workers.items()
            },
            "recovery_report": {
                str(k): n for k, n in self.recovery_report.items()
            },
        }

    def _health_page(self, request: HttpRequest):
        shards = self._fanout_json("/health")
        degraded = any("error" in v for v in shards.values() if isinstance(v, dict))
        return _json_response(
            {
                "status": "degraded" if degraded else "ok",
                "supervisor": self._supervisor_section(),
                "shards": shards,
            },
            status=503 if degraded else 200,
        )

    def _slo_page(self, request: HttpRequest):
        return _json_response(
            {
                "supervisor": self._supervisor_section(),
                "shards": self._fanout_json("/slo"),
            }
        )


def _probe_free_port(host: str) -> int:
    """An ephemeral port that was free a moment ago (probe-bind-close).

    Workers bind their direct ports plain (SO_REUSEADDR only), so the
    reservation cannot be held open the way the shared data port's is;
    the bind-after-close race is accepted on loopback.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]
    finally:
        sock.close()

"""Simulated twin of the ramp-up test client.

Runs N client processes on a simulated host for a fixed span of simulated
time — so the paper's full "one minute per point, up to 2000 clients" is
affordable and deterministic.  Each client loops echo calls over a
persistent connection (reconnecting when it breaks) and the harness
aggregates transmitted / not-sent counts exactly like the paper's tool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.errors import (
    ConnectionLimitExceeded,
    HttpParseError,
    ReproError,
    SimInterrupt,
    TransportError,
)
from repro.http import HttpRequest
from repro.http.session import soap_post
from repro.simnet.httpsim import sim_http_exchange
from repro.simnet.kernel import Simulator
from repro.simnet.tcpsim import SimTcpConnection, TcpParams, connect
from repro.simnet.topology import Host, Network
from repro.util.ids import IdGenerator
from repro.util.stats import OnlineStats
from repro.workload.echo import make_echo_message, make_echo_request
from repro.workload.results import RunResult
from repro.wsa import EndpointReference


@dataclass
class SimRampConfig:
    """One simulated measurement point."""

    clients: int = 10
    duration: float = 60.0
    connect_timeout: float = 10.0
    response_timeout: float = 10.0
    #: pause between a failure and the next attempt (client-side backoff;
    #: also the floor cost of an instantly-failing local connect)
    retry_backoff: float = 0.050
    #: optional pacing between successful calls
    think_time: float = 0.0
    #: reuse the connection across calls (HTTP keep-alive)
    keep_alive: bool = True


def default_request_factory() -> HttpRequest:
    return soap_post(make_echo_request().to_bytes())


def echo_request_factory(
    to: str, path: str, ids: IdGenerator, reply_tos: list[EndpointReference]
) -> Callable[[], HttpRequest]:
    """One-way echo POSTs to ``to``, each with the next of ``ids`` as its
    MessageID; the n-th, counting from 1, replies to
    ``reply_tos[n % len(reply_tos)]``."""
    counter = itertools.count(1)

    def factory() -> HttpRequest:
        env = make_echo_message(
            to=to,
            message_id=ids.next(),
            reply_to=reply_tos[next(counter) % len(reply_tos)],
        )
        return soap_post(env.to_bytes(), path)

    return factory


class SimRampTester:
    """Spawns client processes and aggregates their statistics."""

    def __init__(
        self,
        net: Network,
        client_host: Host,
        server_name: str,
        port: int,
        path: str,
        request_factory: Callable[[], HttpRequest] | None = None,
    ) -> None:
        self.net = net
        self.sim: Simulator = net.sim
        self.client_host = client_host
        self.server_name = server_name
        self.port = port
        self.path = path
        self.request_factory = request_factory or default_request_factory

    def _client_proc(self, config: SimRampConfig, result: RunResult, end_at: float):
        sim = self.sim
        conn: SimTcpConnection | None = None
        params = TcpParams(connect_timeout=config.connect_timeout)
        while sim.now < end_at:
            request = self.request_factory()
            request.target = self.path
            if not config.keep_alive:
                request.headers.set("Connection", "close")
            t0 = sim.now
            try:
                if conn is None or conn.closed or (conn.peer and conn.peer.closed):
                    conn = yield from connect(
                        self.net, self.client_host, self.server_name,
                        self.port, params,
                    )
                response = yield from sim_http_exchange(
                    conn, request, config.response_timeout
                )
                if not response.keep_alive or not config.keep_alive:
                    conn.close()
                    conn = None
                if response.status < 400:
                    result.transmitted += 1
                    result.latency.add(sim.now - t0)
                else:
                    result.errors += 1
                    yield sim.timeout(config.retry_backoff)
            except SimInterrupt:
                break  # measurement window closed mid-operation
            except ConnectionLimitExceeded:
                result.not_sent += 1
                yield sim.timeout(config.retry_backoff)
            except (TransportError, HttpParseError, ReproError):
                if sim.now >= end_at:
                    break  # failure caused by the window closing, not the SUT
                result.not_sent += 1
                if conn is not None:
                    conn.close()
                    conn = None
                yield sim.timeout(config.retry_backoff)
            if config.think_time > 0:
                yield sim.timeout(config.think_time)
        if conn is not None:
            conn.close()

    def run(self, config: SimRampConfig) -> RunResult:
        """Run one measurement point (advances the shared simulator)."""
        result = RunResult(clients=config.clients, duration=config.duration)
        result.latency = OnlineStats()
        end_at = self.sim.now + config.duration
        procs = [
            self.sim.process(
                self._client_proc(config, result, end_at), name=f"client-{i}"
            )
            for i in range(config.clients)
        ]
        self.sim.run(until=end_at)
        # let in-flight operations resolve so connection slots free up
        # before a subsequent measurement reuses the simulator
        for p in procs:
            if p.is_alive:
                p.interrupt("measurement over")
        self.sim.run(until=self.sim.now + 1e-6)
        return result

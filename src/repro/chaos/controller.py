"""Apply a :class:`~repro.chaos.plan.FaultPlan` to a simulated network.

The controller turns each fault into one simulation process that flips
the corresponding knob at the scheduled time and restores it afterwards:
link ``down_until`` stamps, link ``loss`` rates, ``extra_latency`` /
``jitter``, host ``fail()``/``recover()``, ``cpu_factor`` scaling,
registry availability, and service listener pause/resume.  Processes are
spawned in plan order, so two runs of the same (scenario, plan, seed)
replay identically event for event.
"""

from __future__ import annotations

import logging

from repro.chaos.plan import (
    AddedLatency,
    FaultPlan,
    LinkDown,
    LinkFlap,
    PacketLoss,
    RegistryOutage,
    ServiceCrash,
    ServiceStop,
    SlowResponder,
)
from repro.errors import SimulationError
from repro.obs.flight import FlightRecorder, default_flight_recorder
from repro.obs.logkv import component_logger, log_event
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.simnet.topology import Network


class ChaosController:
    """Drives a fault plan against a simnet :class:`Network`.

    ``registry`` (a :class:`~repro.core.registry.ServiceRegistry`) is only
    needed when the plan contains whole-registry :class:`RegistryOutage`
    faults, and ``servers`` (:class:`~repro.simnet.httpsim.SimHttpServer`
    instances) only for :class:`ServiceStop` faults.  ``replicas`` maps
    replica name → handle (anything with ``set_available``, e.g.
    a :class:`~repro.core.registry.ServiceRegistry` peer) and is needed for
    replica-targeted outages; a :class:`ServiceCrash` whose host name
    matches a replica also flips that replica's availability, so killing
    a registry host kills the registry process on it.

    Metrics: ``chaos_faults_injected_total{kind}`` counts fault windows
    as they begin; ``chaos_faults_active`` gauges how many are currently
    in effect.
    """

    def __init__(
        self,
        net: Network,
        plan: FaultPlan,
        registry=None,
        servers=(),
        metrics: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
        replicas=None,
    ) -> None:
        self.net = net
        self.sim = net.sim
        self.plan = plan
        self.registry = registry
        self._replicas = dict(replicas) if replicas else {}
        self._servers = {(s.host.name, s.port): s for s in servers}
        self.metrics = metrics if metrics is not None else default_registry()
        self.flight = flight if flight is not None else default_flight_recorder()
        self._log = component_logger("chaos")
        self._m_injected = self.metrics.counter(
            "chaos_faults_injected_total", "fault windows begun, by kind"
        )
        self._active = 0
        self._m_active = self.metrics.gauge(
            "chaos_faults_active", "fault windows currently in effect"
        )
        self._m_active.set_function(lambda: self._active)
        self.injected = 0
        self._started = False

    def start(self) -> None:
        """Schedule every fault in the plan (idempotent)."""
        if self._started:
            return
        self._started = True
        for fault in self.plan.faults:
            if isinstance(fault, RegistryOutage):
                if fault.replica is None and self.registry is None:
                    raise SimulationError(
                        "plan has a RegistryOutage but no registry was given"
                    )
                if fault.replica is not None and fault.replica not in self._replicas:
                    raise SimulationError(
                        f"plan targets unknown registry peer {fault.replica!r}"
                    )
            if isinstance(fault, ServiceStop):
                if (fault.host, fault.port) not in self._servers:
                    raise SimulationError(
                        f"plan stops unknown server {fault.host}:{fault.port}"
                    )
            self.sim.process(self._drive(fault), name=f"chaos-{type(fault).__name__}")

    # -- per-fault processes ------------------------------------------------
    def _begin(self, fault, **fields) -> None:
        kind = type(fault).__name__
        self.injected += 1
        self._active += 1
        self._m_injected.labels(kind=kind).inc()
        log_event(
            self._log, logging.WARNING, "inject",
            kind=kind, host=getattr(fault, "host", "-"), t=round(self.sim.now, 6),
            **fields,
        )
        self.flight.record(
            "fault-inject", "chaos", t=self.sim.now,
            fault=kind, host=getattr(fault, "host", None), **fields,
        )

    def _end(self, fault) -> None:
        self._active -= 1
        log_event(
            self._log, logging.INFO, "restore",
            kind=type(fault).__name__, host=getattr(fault, "host", "-"),
            t=round(self.sim.now, 6),
        )
        self.flight.record(
            "fault-restore", "chaos", t=self.sim.now,
            fault=type(fault).__name__, host=getattr(fault, "host", None),
        )

    def _drive(self, fault):
        yield self.sim.timeout(fault.at)
        if isinstance(fault, LinkDown):
            yield from self._down_window(fault, fault.duration)
        elif isinstance(fault, LinkFlap):
            while self.sim.now < fault.until:
                cycle_start = self.sim.now
                yield from self._down_window(fault, fault.down_for)
                remainder = fault.period - (self.sim.now - cycle_start)
                if remainder > 0:
                    yield self.sim.timeout(remainder)
        elif isinstance(fault, PacketLoss):
            link = self.net.host(fault.host).link
            prev, link.loss = link.loss, fault.rate
            self._begin(fault, rate=fault.rate)
            yield self.sim.timeout(fault.duration)
            link.loss = prev
            self._end(fault)
        elif isinstance(fault, AddedLatency):
            link = self.net.host(fault.host).link
            link.extra_latency += fault.extra
            link.jitter += fault.jitter
            self._begin(fault, extra=fault.extra, jitter=fault.jitter)
            yield self.sim.timeout(fault.duration)
            link.extra_latency -= fault.extra
            link.jitter -= fault.jitter
            self._end(fault)
        elif isinstance(fault, ServiceCrash):
            host = self.net.host(fault.host)
            replica = self._replicas.get(fault.host)
            host.fail()
            if replica is not None:
                replica.set_available(False)
            self._begin(fault, restart_after=fault.restart_after)
            if fault.restart_after is None:
                return
            yield self.sim.timeout(fault.restart_after)
            host.recover()
            if replica is not None:
                replica.set_available(True)
            self._end(fault)
        elif isinstance(fault, ServiceStop):
            server = self._servers[(fault.host, fault.port)]
            server.pause()
            self._begin(fault, port=fault.port)
            yield self.sim.timeout(fault.duration)
            server.resume()
            self._end(fault)
        elif isinstance(fault, SlowResponder):
            host = self.net.host(fault.host)
            host.cpu_factor *= fault.factor
            self._begin(fault, factor=fault.factor)
            yield self.sim.timeout(fault.duration)
            host.cpu_factor /= fault.factor
            self._end(fault)
        elif isinstance(fault, RegistryOutage):
            target = (
                self.registry
                if fault.replica is None
                else self._replicas[fault.replica]
            )
            target.set_available(False)
            self._begin(fault, replica=fault.replica)
            yield self.sim.timeout(fault.duration)
            target.set_available(True)
            self._end(fault)
        else:  # pragma: no cover - plan validation rejects unknown kinds
            raise SimulationError(f"unknown fault type {fault!r}")

    def _down_window(self, fault, duration: float):
        link = self.net.host(fault.host).link
        until = self.sim.now + duration
        link.down_until = max(link.down_until, until)
        self._begin(fault, duration=duration)
        yield self.sim.timeout(duration)
        self._end(fault)

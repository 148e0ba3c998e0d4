"""Fault plans: declarative, seeded schedules of network/service faults.

A plan is pure data.  Every fault names the host it applies to and a
start time (seconds from the start of the run), and the plan can answer
point-in-time queries (`is_link_down(host, t)`, `loss_rate(host, t)`, …).
The simulation driver (:class:`~repro.chaos.controller.ChaosController`)
walks the same windows as scheduled processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError


@dataclass(frozen=True)
class LinkDown:
    """The host's access link carries nothing for ``duration`` seconds."""

    host: str
    at: float
    duration: float


@dataclass(frozen=True)
class LinkFlap:
    """Periodic outages: down for ``down_for`` every ``period`` seconds,
    starting at ``at`` and stopping after ``until``."""

    host: str
    at: float
    period: float
    down_for: float
    until: float

    def windows(self) -> list[tuple[float, float]]:
        out = []
        start = self.at
        while start < self.until:
            out.append((start, start + self.down_for))
            start += self.period
        return out


@dataclass(frozen=True)
class PacketLoss:
    """Per-transfer drop probability on the host's link for a window."""

    host: str
    at: float
    duration: float
    rate: float


@dataclass(frozen=True)
class AddedLatency:
    """Extra one-way delay (plus uniform jitter) on the host's link."""

    host: str
    at: float
    duration: float
    extra: float
    jitter: float = 0.0


@dataclass(frozen=True)
class ServiceCrash:
    """The whole host goes dark at ``at``; with ``restart_after`` set it
    comes back that many seconds later (established connections stay
    dead — the reboot lost their TCP state)."""

    host: str
    at: float
    restart_after: float | None = None


@dataclass(frozen=True)
class ServiceStop:
    """One service stops while its host stays up: the listener closes, so
    connects are actively refused rather than timing out."""

    host: str
    port: int
    at: float
    duration: float


@dataclass(frozen=True)
class SlowResponder:
    """The host's CPU slows by ``factor`` (service times stretch)."""

    host: str
    at: float
    duration: float
    factor: float


@dataclass(frozen=True)
class RegistryOutage:
    """Registry lookups/resolves fail for the window.

    With ``replica`` unset the whole registry goes dark (the single-
    process registry, or every replica at once); naming a replica takes
    down just that peer — the fault a replicated registry must shrug off
    with client failover."""

    at: float
    duration: float
    replica: str | None = None


Fault = (
    LinkDown
    | LinkFlap
    | PacketLoss
    | AddedLatency
    | ServiceCrash
    | ServiceStop
    | SlowResponder
    | RegistryOutage
)


def _validate(fault: Fault) -> None:
    if fault.at < 0:
        raise SimulationError(f"fault starts before t=0: {fault}")
    duration = getattr(fault, "duration", None)
    if duration is not None and duration <= 0:
        raise SimulationError(f"fault needs a positive duration: {fault}")
    if isinstance(fault, PacketLoss) and not 0.0 <= fault.rate < 1.0:
        raise SimulationError(f"loss rate must be in [0, 1): {fault}")
    if isinstance(fault, SlowResponder) and fault.factor < 1.0:
        raise SimulationError(f"slowdown factor must be >= 1: {fault}")
    if isinstance(fault, LinkFlap):
        if fault.period <= 0 or fault.down_for <= 0 or fault.down_for > fault.period:
            raise SimulationError(
                f"flap needs 0 < down_for <= period: {fault}"
            )
        if fault.until <= fault.at:
            raise SimulationError(f"flap ends before it starts: {fault}")
    if isinstance(fault, ServiceCrash) and fault.restart_after is not None:
        if fault.restart_after <= 0:
            raise SimulationError(f"restart_after must be positive: {fault}")
    if isinstance(fault, AddedLatency) and (fault.extra < 0 or fault.jitter < 0):
        raise SimulationError(f"latency amounts must be >= 0: {fault}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults plus the seed that makes every
    probabilistic draw (packet loss, jitter) reproducible."""

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            _validate(fault)

    def _of(self, kind) -> list:
        return [f for f in self.faults if isinstance(f, kind)]

    # -- point-in-time queries ---------------------------------------------
    def link_down_windows(self, host: str) -> list[tuple[float, float]]:
        windows = [
            (f.at, f.at + f.duration)
            for f in self._of(LinkDown)
            if f.host == host
        ]
        for flap in self._of(LinkFlap):
            if flap.host == host:
                windows.extend(flap.windows())
        return sorted(windows)

    def is_link_down(self, host: str, t: float) -> bool:
        return any(a <= t < b for a, b in self.link_down_windows(host))

    def loss_rate(self, host: str, t: float) -> float:
        rates = [
            f.rate
            for f in self._of(PacketLoss)
            if f.host == host and f.at <= t < f.at + f.duration
        ]
        return max(rates, default=0.0)

    def extra_latency(self, host: str, t: float) -> tuple[float, float]:
        """(extra, jitter) in effect on the host's link at ``t``."""
        extra = jitter = 0.0
        for f in self._of(AddedLatency):
            if f.host == host and f.at <= t < f.at + f.duration:
                extra += f.extra
                jitter += f.jitter
        return extra, jitter

    def is_crashed(self, host: str, t: float) -> bool:
        for f in self._of(ServiceCrash):
            if f.host != host or t < f.at:
                continue
            if f.restart_after is None or t < f.at + f.restart_after:
                return True
        return False

    def is_stopped(self, host: str, port: int, t: float) -> bool:
        return any(
            f.host == host and f.port == port and f.at <= t < f.at + f.duration
            for f in self._of(ServiceStop)
        )

    def slow_factor(self, host: str, t: float) -> float:
        factor = 1.0
        for f in self._of(SlowResponder):
            if f.host == host and f.at <= t < f.at + f.duration:
                factor *= f.factor
        return factor

    def registry_down(self, t: float, replica: str | None = None) -> bool:
        """Is the registry (or, when ``replica`` is given, that one
        replica) down at ``t``?  Replica-targeted outages do not count as
        whole-registry outages and vice versa — a targeted fault is
        exactly what the other replicas are expected to absorb."""
        return any(
            f.at <= t < f.at + f.duration and f.replica == replica
            for f in self._of(RegistryOutage)
        )

    def horizon(self) -> float:
        """Time by which every fault has fully played out."""
        end = 0.0
        for f in self.faults:
            if isinstance(f, LinkFlap):
                end = max(end, f.until + f.down_for)
            elif isinstance(f, ServiceCrash):
                if f.restart_after is not None:
                    end = max(end, f.at + f.restart_after)
                else:
                    end = max(end, f.at)
            else:
                end = max(end, f.at + getattr(f, "duration", 0.0))
        return end

"""Hosts, access links, and the network fabric.

Model: every host reaches the Internet backbone through one duplex
**access link** with its own upload/download rates and one-way propagation
latency — the paper's bottlenecks are exactly these (cable modem
288 kbps *up*, institutional links ~1.3 Mbps).  The backbone itself is
assumed uncongested, so the end-to-end path between two hosts is

    sender.up pipe → sender.latency + receiver.latency → receiver.down pipe

Each pipe direction is a FIFO serialization queue at the link rate, so
concurrent flows share bandwidth by queueing behind each other — the
mechanism that melts the cable-modem uplink in Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.simnet.kernel import Event, Simulator, Timeout
from repro.simnet.firewall import FirewallPolicy


class Pipe:
    """FIFO serialization queue at a fixed bit rate.

    O(1) per transfer: the pipe tracks when it next becomes free; a
    transfer of ``nbytes`` completes at ``max(now, free_at) + nbytes*8/rate``.
    """

    def __init__(self, sim: Simulator, rate_bps: float, name: str = "pipe") -> None:
        if rate_bps <= 0:
            raise SimulationError(f"{name}: rate must be positive")
        self.sim = sim
        self.rate_bps = rate_bps
        self.name = name
        self._free_at = 0.0
        self.bytes_carried = 0
        self.transfers = 0

    def reserve(self, nbytes: int) -> float:
        """Queue ``nbytes`` behind the backlog; seconds from now until its
        last bit leaves the pipe."""
        if nbytes < 0:
            raise SimulationError("cannot transmit negative bytes")
        now = self.sim.now
        start = max(now, self._free_at)
        duration = nbytes * 8.0 / self.rate_bps
        self._free_at = start + duration
        self.bytes_carried += nbytes
        self.transfers += 1
        return self._free_at - now

    def transmit(self, nbytes: int) -> Timeout:
        """Event firing when the last bit of ``nbytes`` leaves the pipe."""
        return self.sim.timeout(self.reserve(nbytes))

    @property
    def backlog_seconds(self) -> float:
        """How far behind real time the pipe currently is."""
        return max(0.0, self._free_at - self.sim.now)


@dataclass
class AccessLink:
    """A host's duplex connection to the backbone.

    ``loss`` is a per-transfer drop probability on this link (either
    direction) — lossy residential last miles.  Losses are drawn from the
    *network's* seeded RNG so runs stay deterministic.
    """

    down_kbps: float
    up_kbps: float
    latency: float  # one-way propagation to the backbone core, seconds
    loss: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise SimulationError(f"loss must be in [0, 1), got {self.loss}")

    def build(self, sim: Simulator, host_name: str) -> "BuiltLink":
        return BuiltLink(
            up=Pipe(sim, self.up_kbps * 1000.0, name=f"{host_name}.up"),
            down=Pipe(sim, self.down_kbps * 1000.0, name=f"{host_name}.down"),
            latency=self.latency,
            loss=self.loss,
        )


@dataclass
class BuiltLink:
    up: Pipe
    down: Pipe
    latency: float
    loss: float = 0.0
    dropped_transfers: int = 0
    #: fault injection: the link carries nothing until this sim-time —
    #: transfers stall (TCP keeps retrying) and complete after recovery,
    #: or the caller's own deadline (connect/read timeout) fires first
    down_until: float = 0.0
    #: fault injection: extra one-way delay added to every transfer
    extra_latency: float = 0.0
    #: fault injection: uniform random extra delay in [0, jitter) per
    #: transfer, drawn from the network's seeded RNG
    jitter: float = 0.0
    stalled_transfers: int = 0


class Host:
    """A simulated machine: link, firewall, connection table, CPU speed.

    ``cpu_factor`` scales service times (1.0 = the paper's "fast" host;
    larger = slower — inriaSlow/iuLow get ~3-4x).  ``max_connections``
    models the OS connection table / per-process descriptor limit that
    caps concurrent TCP connections on 2005-era stacks.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        link: AccessLink,
        firewall: FirewallPolicy | None = None,
        max_connections: int = 1024,
        cpu_factor: float = 1.0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.link = link.build(sim, name)
        self.firewall = firewall or FirewallPolicy.open()
        self.max_connections = max_connections
        self.cpu_factor = cpu_factor
        self.active_connections = 0
        self.refused_connections = 0
        self.listeners: dict[int, object] = {}  # port -> SimListener
        #: port -> the SoapHttpApp a SimHttpServer serves there, and the
        #: components on this machine that want to hear (``hosted_on``)
        #: when that table, or a served app's mount table, changes — how a
        #: simulated MSG-Dispatcher learns which WS-MsgBox it is co-hosted
        #: with (paper section 4.3.2)
        self.apps: dict[int, object] = {}
        self.residents: list = []
        #: True while the machine is down (crash injection): inbound SYNs
        #: are dropped, established connections break on next use
        self.failed = False
        #: bumped on every crash — connections pinned to an older epoch
        #: are dead even after the host recovers (a reboot loses TCP state)
        self.epoch = 0

    def serve_app(self, port: int, app) -> None:
        """Record that ``app`` serves ``port`` and tell the residents,
        now and on every later mount on ``app``."""
        self.apps[port] = app
        app.watchers.append(self)
        self.hosted_on(app)

    def hosted_on(self, app) -> None:
        for resident in self.residents:
            resident.hosted_on(app)

    def fail(self) -> None:
        """Crash the host: no RSTs, no FINs — it just goes dark."""
        self.failed = True
        self.epoch += 1

    def recover(self) -> None:
        """Bring the host back (listeners and state survive the restart,
        established connections do not — the crash lost their TCP state)."""
        self.failed = False

    # -- connection accounting ---------------------------------------------
    def try_acquire_connection(self) -> bool:
        if self.active_connections >= self.max_connections:
            self.refused_connections += 1
            return False
        self.active_connections += 1
        return True

    def release_connection(self) -> None:
        self.active_connections -= 1
        if self.active_connections < 0:
            raise SimulationError(f"{self.name}: connection count underflow")

    # -- CPU -----------------------------------------------------------------
    def compute(self, seconds: float) -> Timeout:
        """Event firing after ``seconds`` of work scaled by host speed."""
        return self.sim.timeout(seconds * self.cpu_factor)


class Network:
    """Name → host registry plus path characteristics."""

    def __init__(self, sim: Simulator, loss_seed: int = 0) -> None:
        import random

        self.sim = sim
        self._hosts: dict[str, Host] = {}
        self._loss_rng = random.Random(loss_seed)
        #: TCP retransmission timeout charged per lost transfer
        self.rto = 1.0

    def add_host(
        self,
        name: str,
        link: AccessLink,
        firewall: FirewallPolicy | None = None,
        max_connections: int = 1024,
        cpu_factor: float = 1.0,
    ) -> Host:
        if name in self._hosts:
            raise SimulationError(f"duplicate host {name!r}")
        host = Host(
            self.sim,
            name,
            link,
            firewall=firewall,
            max_connections=max_connections,
            cpu_factor=cpu_factor,
        )
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise SimulationError(f"unknown host {name!r}") from None

    def propagation(self, a: Host, b: Host) -> float:
        """One-way propagation delay between two hosts."""
        if a is b:
            return 0.0001  # loopback
        return a.link.latency + b.link.latency

    def transfer(self, src: Host, dst: Host, nbytes: int) -> Event:
        """Composite event: ``nbytes`` fully delivered from src to dst.

        Serialization up the sender's link, propagation, then serialization
        down the receiver's link (store-and-forward at the core).  A
        transfer from a host to itself (co-located services) bypasses the
        access link entirely — loopback is not metered.

        A chain of kernel callbacks, not a process: start → links up? →
        up pipe → loss / RTO → propagation → down pipe → ``done``.  The
        links are first read one kernel step after the call, so a fault
        applied at the calling instant is seen.
        """
        sim = self.sim
        if src is dst:
            return sim.timeout(0.0001, value=nbytes)
        done = Event(sim)
        stalled = False
        loss = None

        def start(_event: Event) -> None:
            # Fault injection: a downed link carries nothing.  TCP keeps
            # retransmitting, so the transfer waits out the outage rather
            # than failing — the caller's own connect/read deadline is
            # what turns a long outage into an error.
            nonlocal stalled
            until = max(src.link.down_until, dst.link.down_until)
            if until > sim.now:
                if not stalled:
                    stalled = True
                    for link in (src.link, dst.link):
                        if link.down_until > sim.now:
                            link.stalled_transfers += 1
                sim.timeout(until - sim.now).callbacks.append(start)
                return
            stalled = False  # a retry's wait for the links counts again
            sim.timeout(src.link.up.reserve(nbytes)).callbacks.append(sent)

        def sent(_event: Event) -> None:
            # Loss on either access link: TCP retransmits after an RTO, so
            # the transfer still completes — just late (and the resend
            # loads the pipes again).  Counted per link for diagnostics.
            nonlocal loss
            if loss is None:
                loss = max(src.link.loss, dst.link.loss)
            if loss > 0.0 and self._loss_rng.random() < loss:
                lossy = src.link if src.link.loss >= dst.link.loss else dst.link
                lossy.dropped_transfers += 1
                sim.timeout(self.rto).callbacks.append(start)
                return
            delay = self.propagation(src, dst)
            delay += src.link.extra_latency + dst.link.extra_latency
            spread = src.link.jitter + dst.link.jitter
            if spread > 0.0:
                delay += self._loss_rng.random() * spread
            sim.timeout(delay).callbacks.append(arrived)

        def arrived(_event: Event) -> None:
            done.succeed(nbytes, dst.link.down.reserve(nbytes))

        sim.timeout(0.0).callbacks.append(start)
        return done

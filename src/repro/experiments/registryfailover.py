"""Registry-failover experiment: replicated discovery under replica loss.

The acceptance test for the replicated registry (ROADMAP item 2).  Three
:class:`~repro.core.registry.ServiceRegistry` peers gossip over the
simulated network while a :class:`~repro.registry.client.ReplicatedRegistryClient`
streams lookups; a seeded :class:`~repro.chaos.plan.ServiceCrash`
SIGKILLs the client's *first-preference* replica mid-run (host dark,
journal marks dropped), and the restarted incarnation reopens the same
journal and re-converges via anti-entropy.

What the run must show for the replication story to hold:

- **zero lookup failures** — every ``lookup`` during the outage fails
  over to a surviving replica; after the rejoin, the sweep's
  availability bias rides out the victim's staleness window (a just-
  restarted replica answering "unknown" does not end the sweep);
- **bounded staleness** — a service registered *while the victim is
  down* reaches it within two anti-entropy intervals of the rejoin;
- **bit-reproducibility** — every point is run twice and the summaries
  must be identical (seeded shuffle, seeded gossip peer choice, seeded
  network).
"""

from __future__ import annotations

from repro.chaos.controller import ChaosController
from repro.chaos.plan import FaultPlan, ServiceCrash
from repro.core.registry import ServiceRegistry
from repro.errors import ReproError
from repro.experiments.common import ExperimentReport
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.registry import ReplicatedRegistryClient, SimGossipPeer
from repro.registry.gossip import GossipHandler
from repro.simnet.kernel import Simulator
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.scenarios import BACKBONE_IU, add_site
from repro.simnet.topology import Network
from repro.store.journal import MessageJournal

#: (crash_at, restart_after) points swept by :func:`run`
CRASH_POINTS = ((8.0, 6.0), (12.0, 10.0))

REPLICAS = ("reg1", "reg2", "reg3")
GOSSIP_PORT = 7000


class _Slot:
    """Forwarder standing in for one replica *process*: the simulated
    SIGKILL swaps ``obj`` for a fresh incarnation while every long-lived
    reference (client handle, gossip driver, HTTP handler) keeps
    pointing at the slot."""

    def __init__(self, obj) -> None:
        self.obj = obj

    def __getattr__(self, name):
        return getattr(self.obj, name)


def run_point(
    crash_at: float,
    restart_after: float,
    lookup_gap: float = 0.2,
    interval: float = 1.0,
    seed: int = 17,
    horizon: float = 40.0,
) -> dict:
    """One crash/rejoin scenario; returns the per-point summary dict."""
    sim = Simulator()
    net = Network(sim, loss_seed=seed)
    metrics = MetricsRegistry()
    flight = FlightRecorder()

    hosts = {
        name: add_site(net, BACKBONE_IU, name=name, open_ports=(GOSSIP_PORT,))
        for name in REPLICAS
    }
    # one journal object per replica: it is the disk, so it survives the
    # simulated SIGKILL and the restarted incarnation reopens it
    journals = {
        name: MessageJournal(sync="always", now_fn=lambda: sim.now)
        for name in REPLICAS
    }
    slots = {
        name: _Slot(ServiceRegistry(
            metrics=metrics, peer_id=name, journal=journals[name],
        ))
        for name in REPLICAS
    }
    for name in REPLICAS:
        SimHttpServer(
            net, hosts[name], GOSSIP_PORT,
            GossipHandler(slots[name], metrics=metrics),
            workers=4, service_time=0.0005,
        )
    gossips = {
        name: SimGossipPeer(
            net, hosts[name], slots[name],
            {p: (p, GOSSIP_PORT) for p in REPLICAS if p != name},
            interval=interval, seed=seed + i,
            metrics=metrics, flight=flight,
        ).start()
        for i, name in enumerate(REPLICAS)
    }

    client = ReplicatedRegistryClient(
        dict(slots), seed=seed, metrics=metrics,
    )
    client.register("echo", "http://sink:9000/echo")
    # kill the replica every sweep tries first — the strongest failover
    # exercise (a less-preferred victim would never even be consulted)
    victim = client.replica_names[0]
    rejoin_at = crash_at + restart_after

    controller = ChaosController(
        net,
        FaultPlan(
            (ServiceCrash(host=victim, at=crash_at, restart_after=restart_after),),
            seed=seed,
        ),
        metrics=metrics, flight=flight,
        replicas={victim: slots[victim]},
    )
    controller.start()

    restored = {"count": -1}

    def crash_and_restart():
        yield sim.timeout(crash_at)
        # the dying process loses its buffered journal marks (the chaos
        # controller darkens the host and flips availability)
        journals[victim].drop_unflushed()
        yield sim.timeout(restart_after)
        replica = ServiceRegistry(
            metrics=metrics, peer_id=victim, journal=journals[victim],
        )
        slots[victim].obj = replica
        restored["count"] = replica.restored

    sim.process(crash_and_restart(), name="crash-restart")

    lookups = {"attempts": 0, "failures": 0}

    def looker():
        while True:
            try:
                client.lookup("echo")
            except ReproError:
                lookups["failures"] += 1
            lookups["attempts"] += 1
            yield sim.timeout(lookup_gap)

    sim.process(looker(), name="lookup-driver")

    late = {"registered_at": -1.0, "lookups": 0, "failures": 0}

    def late_registrar():
        # register a new service while the victim is down, then hammer it
        yield sim.timeout(crash_at + restart_after / 2)
        client.register("late-svc", "http://sink:9001/late")
        late["registered_at"] = round(sim.now, 6)
        while True:
            yield sim.timeout(lookup_gap)
            try:
                client.lookup("late-svc")
            except ReproError:
                late["failures"] += 1
            late["lookups"] += 1

    sim.process(late_registrar(), name="late-registrar")

    convergence = {"converged_at": -1.0}

    def monitor():
        while True:
            yield sim.timeout(interval / 10)
            if convergence["converged_at"] >= 0 or sim.now <= rejoin_at:
                continue
            vvs = [dict(slots[n].vv) for n in REPLICAS]
            if all(slots[n].available for n in REPLICAS) and all(
                vv == vvs[0] for vv in vvs
            ):
                convergence["converged_at"] = round(sim.now, 6)

    sim.process(monitor(), name="convergence-monitor")

    sim.run(until=horizon)

    health = {n: gossips[n].health.snapshot() for n in REPLICAS}
    events = flight.counts_by_kind()
    staleness = (
        round(convergence["converged_at"] - rejoin_at, 6)
        if convergence["converged_at"] >= 0
        else -1.0
    )
    return {
        "crash_at": crash_at,
        "restart_after": restart_after,
        "victim": victim,
        "interval": interval,
        "lookups": lookups["attempts"],
        "lookup_failures": lookups["failures"],
        "late_lookups": late["lookups"],
        "late_lookup_failures": late["failures"],
        "late_registered_at": late["registered_at"],
        "failovers": int(
            metrics.counter(
                "registry_client_failover_total",
                "lookup attempts that skipped past a failed replica",
            ).labels().get()
        ),
        "replayed_on_restart": restored["count"],
        "converged_at": convergence["converged_at"],
        "staleness_after_rejoin": staleness,
        "gossip_rounds": sum(
            p["rounds"] for snap in health.values() for p in snap.values()
        ),
        "gossip_failures": sum(
            p["failures"] for snap in health.values() for p in snap.values()
        ),
        "replica_down_events": events.get("replica-down", 0),
        "replica_rejoin_events": events.get("replica-rejoin", 0),
        "gossip_converged_events": events.get("gossip-converged", 0),
        "final_entries": {n: slots[n].stats["entries"] for n in REPLICAS},
    }


def run(
    crash_points: tuple = CRASH_POINTS,
    seed: int = 17,
    interval: float = 1.0,
) -> ExperimentReport:
    """Sweep the crash points; every point runs twice to prove the
    summaries are bit-identical (seeded simulation, no wall clock)."""
    report = ExperimentReport(
        experiment="Registry failover",
        description=(
            "SIGKILL one of three gossiping registry "
            "replicas mid-run: zero lookup failures, rejoin from journal, "
            "convergence within two anti-entropy intervals, "
            "bit-reproducible"
        ),
    )
    rows = []
    for crash_at, restart_after in crash_points:
        point = run_point(
            crash_at, restart_after, seed=seed, interval=interval
        )
        rerun = run_point(
            crash_at, restart_after, seed=seed, interval=interval
        )
        point["reproducible"] = point == rerun
        rows.append(point)
        report.extras[f"crash={crash_at:g}s,restart={restart_after:g}s"] = point
    lines = [
        "# registry failover [lookup availability across a replica SIGKILL]",
        "crash_s\trestart_s\tvictim\tlookups\tfails\tlate_fails\tfailovers"
        "\treplayed\tstale_s\trepro",
    ]
    for p in rows:
        lines.append(
            f"{p['crash_at']:g}\t{p['restart_after']:g}\t{p['victim']}\t"
            f"{p['lookups']}\t{p['lookup_failures']}\t"
            f"{p['late_lookup_failures']}\t{p['failovers']}\t"
            f"{p['replayed_on_restart']}\t{p['staleness_after_rejoin']:g}\t"
            f"{p['reproducible']}"
        )
    report.tables = ["\n".join(lines)]
    report.notes.append(
        f"seed={seed}, anti-entropy interval={interval:g}s; the victim is "
        "the client's first-preference replica; 'stale_s' is how long "
        "after the rejoin the three version vectors re-equalised"
    )
    return report


def check_shape(report: ExperimentReport) -> list[str]:
    """Replication contract: lookups never fail, staleness is bounded."""
    failures: list[str] = []
    for key, point in report.extras.items():
        if point["lookup_failures"] or point["late_lookup_failures"]:
            failures.append(
                f"{key}: {point['lookup_failures']} lookup and "
                f"{point['late_lookup_failures']} late-lookup failures — "
                "failover did not mask the replica loss"
            )
        if point["failovers"] <= 0:
            failures.append(f"{key}: the outage never exercised failover")
        if point["replayed_on_restart"] <= 0:
            failures.append(
                f"{key}: the restarted replica replayed nothing from its "
                "journal"
            )
        if point["converged_at"] < 0:
            failures.append(f"{key}: replicas never re-converged")
        elif point["staleness_after_rejoin"] > 2 * point["interval"]:
            failures.append(
                f"{key}: convergence took {point['staleness_after_rejoin']:g}s "
                f"(> 2 intervals = {2 * point['interval']:g}s)"
            )
        if not point["replica_down_events"] or not point["replica_rejoin_events"]:
            failures.append(
                f"{key}: missing replica-down/replica-rejoin flight events"
            )
        if not point["reproducible"]:
            failures.append(f"{key}: two seeded runs diverged")
    return failures

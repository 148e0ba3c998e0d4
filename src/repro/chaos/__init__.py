"""Deterministic fault injection for the dispatcher stack.

The mediated-peer world the paper targets treats hostile networks as the
normal case: links flap, residential last miles drop packets, services
crash and restart, and the registry itself can vanish.  This package
turns those conditions into data — a :class:`FaultPlan` of timed faults —
and :class:`ChaosController`, which schedules the plan onto a simulated
:class:`~repro.simnet.topology.Network` (link state, loss rates, host
crashes, CPU slowdowns, registry availability), so simnet scenarios
replay bit-identically under a seed.
"""

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
from repro.chaos.controller import ChaosController

__all__ = [
    "AddedLatency",
    "ChaosController",
    "FaultPlan",
    "LinkDown",
    "LinkFlap",
    "PacketLoss",
    "RegistryOutage",
    "ServiceCrash",
    "ServiceStop",
    "SlowResponder",
]

"""Discrete-event network simulator.

The paper's evaluation ran on physical infrastructure — trans-Atlantic
links, an asymmetric cable modem, institutional firewalls, 2005-era hosts.
This package recreates those conditions as an explicit, deterministic
model: a coroutine-based event kernel (:mod:`~repro.simnet.kernel`,
SimPy-style), hosts and access links with bandwidth/latency
(:mod:`~repro.simnet.topology`), a connection-level TCP model with
handshakes, timeouts, and connection-table limits
(:mod:`~repro.simnet.tcpsim`), stateful outbound-only firewalls
(:mod:`~repro.simnet.firewall`), HTTP over the simulated transport reusing
the production sans-io codec (:mod:`~repro.simnet.httpsim`), and scenario
builders with the paper's measured numbers
(:mod:`~repro.simnet.scenarios`).
"""

from repro.simnet.kernel import Simulator, Process, Timeout, Event, AnyOf
from repro.simnet.resources import Store, Resource
from repro.simnet.topology import Host, AccessLink, Network
from repro.simnet.firewall import FirewallPolicy
from repro.simnet.tcpsim import SimTcpConnection, TcpParams
from repro.simnet.httpsim import SimHttpServer, SimHttpClientPool, sim_http_request
from repro.simnet.scenarios import (
    SiteSpec,
    make_network,
    CABLE_MODEM_US,
    BACKBONE_IU,
    INRIA,
)

__all__ = [
    "Simulator",
    "Process",
    "Timeout",
    "Event",
    "AnyOf",
    "Store",
    "Resource",
    "Host",
    "AccessLink",
    "Network",
    "FirewallPolicy",
    "SimTcpConnection",
    "TcpParams",
    "SimHttpServer",
    "SimHttpClientPool",
    "sim_http_request",
    "SiteSpec",
    "make_network",
    "CABLE_MODEM_US",
    "BACKBONE_IU",
    "INRIA",
]

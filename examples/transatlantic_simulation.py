#!/usr/bin/env python
"""Recreate the paper's trans-Atlantic testbed in the simulator.

Builds INRIA (firewalled, France) ↔ Indiana University (US backbone) with
the paper's measured bandwidths and realistic 2005 RTTs, deploys the
MSG-Dispatcher + WS-MsgBox at IU, and sweeps the client count to show the
Figure 6 effect live: with the mailbox the system scales; pointing
replies at the firewalled client collapses it.

Run:  python examples/transatlantic_simulation.py
"""

from repro.core.sim_dispatcher import SimMsgDispatcherConfig
from repro.experiments.common import build_iu_deployment
from repro.util.ids import IdGenerator
from repro.workload.sim_testclient import SimRampConfig
from repro.wsa import EndpointReference


def make_tester(use_mailbox: bool, clients: int):
    """Clients whose replies go to IU mailboxes, or back to INRIA itself."""
    world = build_iu_deployment(
        reply_connect_timeout=4.0,
        dispatcher=SimMsgDispatcherConfig(
            cx_workers=4, ws_workers=8, accept_queue=128, destination_queue=16,
            parallel_per_destination=4, connect_timeout=4.0,
        ),
    )
    if use_mailbox:
        reply_tos = world.open_mailboxes(clients)
    else:
        reply_tos = [
            EndpointReference(f"http://inria:{20000 + i}/reply")
            for i in range(clients)
        ]
    return world.tester(IdGenerator("example", seed=clients), reply_tos)


def main() -> None:
    print("Simulated testbed: INRIA (1335/1262 kbps, firewalled) "
          "<-> IU backbone (3655/2739 kbps), RTT ~130 ms\n")
    header = f"{'clients':>8} {'with mailbox':>14} {'replies->client':>16}"
    print(header)
    print("-" * len(header))
    for clients in (1, 10, 25, 50):
        row = [f"{clients:>8}"]
        for use_mailbox in (True, False):
            result = make_tester(use_mailbox, clients).run(
                SimRampConfig(clients=clients, duration=30.0,
                              connect_timeout=10.0, response_timeout=10.0,
                              think_time=0.004)
            )
            row.append(f"{result.per_minute:>13.0f}{'*' if not use_mailbox else ' '}")
        print(" ".join(row))
    print("\n(*) without the mailbox the dispatcher burns connect timeouts "
          "against the INRIA firewall and collapses — Figure 6's finding.")


if __name__ == "__main__":
    main()

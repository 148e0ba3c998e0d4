"""Replica-kill acceptance.

One seeded simulated run of the registry-failover experiment point:
three gossiping replicas, the client's first-preference replica is
SIGKILLed mid-run and rejoins from its journal.  The replication
contract this PR ships is asserted directly: zero lookup failures,
bounded staleness, full flight/obs coverage, bit-reproducibility.
"""

from repro.experiments import registryfailover


def run_point():
    return registryfailover.run_point(8.0, 6.0, seed=17, interval=1.0)


def test_replica_kill_masks_outage_and_reconverges():
    point = run_point()
    # zero lookup failures: failover + availability bias mask the loss
    assert point["lookups"] > 0
    assert point["lookup_failures"] == 0
    assert point["late_lookups"] > 0
    assert point["late_lookup_failures"] == 0
    # the outage was real: sweeps skipped the dead replica
    assert point["failovers"] > 0
    # the rejoining incarnation replayed state from the journal ...
    assert point["replayed_on_restart"] > 0
    # ... and re-converged within two anti-entropy intervals
    assert point["converged_at"] > 0
    assert 0 <= point["staleness_after_rejoin"] <= 2 * point["interval"]
    # obs: both health edges and the convergence event were recorded
    assert point["replica_down_events"] >= 1
    assert point["replica_rejoin_events"] >= 1
    assert point["gossip_converged_events"] >= 1
    # every replica ends holding both services (echo + late-svc)
    assert set(point["final_entries"].values()) == {2}


def test_replica_kill_run_is_bit_reproducible():
    assert run_point() == run_point()

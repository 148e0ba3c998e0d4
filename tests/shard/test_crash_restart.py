"""The acceptance scenario: SIGKILL one shard mid-drain, lose nothing.

A two-shard durable fleet takes a backlog for both shards.  The victim
shard's destination is a deliberately slow sink, so when the shard is
SIGKILLed most of its accepted (journaled, 202'd) messages are still
undelivered.  The supervisor must detect the death, respawn the worker
against its own ``journal-shard<k>.db``, and the replay must deliver
every message exactly once at the sink — while the surviving shard's
traffic drains undisturbed.
"""

import os
import signal
import time

from repro.http import HttpRequest
from repro.rt.client import HttpClient
from repro.shard import HashRing, ShardSupervisor, SupervisorConfig
from repro.transport.tcp import TcpConnector
from repro.workload.echo import make_echo_message

from tests.shard.test_supervisor import _Sink

MESSAGES_PER_SHARD = 12


def _logical_owned_by(ring, shard_id):
    for i in range(200):
        if ring.owner(f"svc{i}") == shard_id:
            return f"svc{i}"
    raise AssertionError("ring never hashed a name to this shard")


def test_sigkill_one_shard_recovers_its_journal(tmp_path):
    # the worker rebuilds this same ring from its spec, so owners
    # computed here are the owners the fleet will enforce
    ring = HashRing(2)
    victim_logical = _logical_owned_by(ring, 0)
    other_logical = _logical_owned_by(ring, 1)

    slow = _Sink(delay=0.15, workers=1)   # serializes the victim's drain
    fast = _Sink()
    registry = {
        victim_logical: f"{slow.url}/{victim_logical}",
        other_logical: f"{fast.url}/{other_logical}",
    }
    config = SupervisorConfig(
        shards=2,
        journal_dir=str(tmp_path),
        ws_threads=4,
        server_workers=8,
        ready_timeout=30.0,
    )
    try:
        with ShardSupervisor(registry, config) as sup:
            assert sup.owner_of(victim_logical) == 0
            assert sup.owner_of(other_logical) == 1
            victim_pid = sup.pids()[0]

            client = HttpClient(TcpConnector())
            try:
                for i in range(MESSAGES_PER_SHARD):
                    for logical in (victim_logical, other_logical):
                        envelope = make_echo_message(
                            to=f"urn:wsd:{logical}",
                            message_id=f"{logical}-m{i}",
                        )
                        response = client.post_envelope(
                            f"{sup.data_url}/msg/{logical}", envelope
                        )
                        assert response.status == 202
            finally:
                client.close()

            # let the slow sink absorb a couple, then kill mid-drain
            deadline = time.monotonic() + 10
            while not slow.mids and time.monotonic() < deadline:
                time.sleep(0.02)
            assert slow.mids, "victim shard never started draining"
            assert len(slow.mids) < MESSAGES_PER_SHARD, (
                "backlog drained before the kill; slow the sink down"
            )
            os.kill(victim_pid, signal.SIGKILL)

            # supervisor detects the death and respawns shard 0
            deadline = time.monotonic() + 30
            while (
                sup.restart_counts()[0] == 0
                or sup.pids()[0] in (None, victim_pid)
            ):
                assert time.monotonic() < deadline, "shard never restarted"
                time.sleep(0.05)

            # journal replay finishes the victim's backlog; the fast
            # shard's traffic is long since undisturbed
            expected_victim = {
                f"{victim_logical}-m{i}" for i in range(MESSAGES_PER_SHARD)
            }
            expected_other = {
                f"{other_logical}-m{i}" for i in range(MESSAGES_PER_SHARD)
            }
            assert slow.wait_for_unique(MESSAGES_PER_SHARD, timeout=60.0), (
                f"victim recovered only {len(slow.mids)} of "
                f"{MESSAGES_PER_SHARD}"
            )
            assert slow.mids == expected_victim
            assert fast.wait_for_unique(MESSAGES_PER_SHARD, timeout=30.0)
            assert fast.mids == expected_other
            assert sup.restart_counts() == {0: 1, 1: 0}

            # control plane reflects the restart and is healthy again
            client = HttpClient(TcpConnector())
            try:
                import json

                health = json.loads(
                    client.request(
                        sup.control_url + "/health",
                        HttpRequest("GET", "/health"),
                    ).body
                )
            finally:
                client.close()
            assert health["status"] == "ok"
            assert health["supervisor"]["restarts"]["0"] == 1
    finally:
        slow.stop()
        fast.stop()

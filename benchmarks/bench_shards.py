"""The multi-core acceptance benchmark for the sharded dispatcher.

One CPython dispatcher process drains on one core no matter how many
threads it runs; the shard supervisor multiplies it across processes.
This benchmark measures drained msgs/s through a full
:class:`~repro.shard.ShardSupervisor` deployment at 1 shard and at
4 shards — same message count, same destinations, same out-of-process
feeders and sinks (``_shard_load.py``) so the fleet under test is the
only thing the bench process's GIL never touches — and gates on the
4-shard run clearing ``MIN_SCALING`` x the 1-shard rate.

Hosts with fewer than 4 CPUs record a skip in ``BENCH_shards.json``
instead of measuring context switching and calling it scaling.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

from _perfjson import REPO_ROOT, host_info, write_bench_json

SHARD_COUNTS = (1, 4)
MIN_SCALING = 2.5
LOGICALS = [f"svc{i}" for i in range(8)]
SINKS = 2
FEEDERS = 2


def _spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(pathlib.Path(__file__).with_name("_shard_load.py"))]
        + args,
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        text=True,
    )


def _sink_count(client, port: int) -> int:
    from repro.http import HttpRequest

    response = client.request(
        f"http://127.0.0.1:{port}/count", HttpRequest("GET", "/count")
    )
    return int(response.body)


def _run_point(shards: int, messages: int) -> dict:
    from repro.http import HttpRequest  # noqa: F401 - import check up front
    from repro.rt.client import HttpClient
    from repro.shard import ShardSupervisor, SupervisorConfig
    from repro.transport.tcp import TcpConnector

    sinks = [_spawn(["sink"]) for _ in range(SINKS)]
    ports = [json.loads(sink.stdout.readline())["port"] for sink in sinks]
    registry = {
        logical: f"http://127.0.0.1:{ports[i % SINKS]}/{logical}"
        for i, logical in enumerate(LOGICALS)
    }
    supervisor = None
    feeders: list[subprocess.Popen] = []
    try:
        supervisor = ShardSupervisor(
            registry,
            SupervisorConfig(shards=shards, runtime="threaded"),
        ).start()
        per_feeder = messages // FEEDERS
        t0 = time.perf_counter()
        feeders = [
            _spawn([
                "feed", supervisor.data_url, ",".join(LOGICALS),
                str(per_feeder), str(seed),
            ])
            for seed in range(FEEDERS)
        ]
        expected = per_feeder * FEEDERS
        deadline = t0 + 180.0
        total = 0
        poll = HttpClient(TcpConnector())
        try:
            while time.perf_counter() < deadline:
                total = sum(_sink_count(poll, port) for port in ports)
                if total >= expected:
                    break
                time.sleep(0.05)
        finally:
            poll.close()
        elapsed = time.perf_counter() - t0
        feed_stats = [json.loads(f.communicate(timeout=60.0)[0]) for f in feeders]
    finally:
        for feeder in feeders:
            if feeder.poll() is None:
                feeder.kill()
        if supervisor is not None:
            supervisor.stop()
        for sink in sinks:
            sink.terminate()
        for sink in sinks:
            sink.wait(timeout=10.0)
    return {
        "shards": shards,
        "messages": expected,
        "fed": sum(s["fed"] for s in feed_stats),
        "feed_errors": sum(s["errors"] for s in feed_stats),
        "delivered": total,
        "wall_seconds": round(elapsed, 3),
        "msgs_per_sec": round(total / elapsed, 2) if elapsed else 0.0,
    }


def test_shard_scaling(benchmark, paper_scale, record_report, require_cpus):
    cpus = require_cpus("shards", max(SHARD_COUNTS))
    messages = 4000 if paper_scale else 2000

    def run():
        return [_run_point(shards, messages) for shards in SHARD_COUNTS]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    by_shards = {row["shards"]: row for row in rows}
    base = by_shards[SHARD_COUNTS[0]]["msgs_per_sec"]
    top = by_shards[SHARD_COUNTS[-1]]["msgs_per_sec"]
    ratio = round(top / base, 2) if base else 0.0
    record_report(
        "shards",
        "\n".join(
            ["shards\tmessages\tdelivered\twall_seconds\tmsgs_per_sec"]
            + [
                f"{r['shards']}\t{r['messages']}\t{r['delivered']}\t"
                f"{r['wall_seconds']}\t{r['msgs_per_sec']}"
                for r in rows
            ]
            + [f"# scaling x{ratio} at {SHARD_COUNTS[-1]} shards on {cpus} cpus"]
        ),
    )
    write_bench_json(
        "shards",
        {
            "benchmark": "shards",
            "host": host_info(),
            "cpus": cpus,
            "rows": rows,
            "gate": {
                "shards": SHARD_COUNTS[-1],
                "baseline_msgs_per_sec": base,
                "scaled_msgs_per_sec": top,
                "ratio": ratio,
                "min_ratio": MIN_SCALING,
            },
        },
    )
    for row in rows:
        assert row["delivered"] == row["messages"], row
        assert row["feed_errors"] == 0, row
    # the tentpole claim: N dispatcher processes drain faster than one
    # can, because each owns its own interpreter lock
    assert ratio >= MIN_SCALING, (
        f"4-shard drain only x{ratio} the 1-shard rate (need {MIN_SCALING})"
    )

"""Ablations A1/A2/A4/A5: pools, batching, reliability, envelope fast path."""

from bench_fastpath import measure_pair
from repro.experiments import ablations


def test_a1_pool_sizing(benchmark, paper_scale, record_report):
    sizes = [1, 2, 4, 8, 16] if paper_scale else [1, 4, 16]
    clients, duration = (30, 20.0) if paper_scale else (15, 10.0)
    report = benchmark.pedantic(
        lambda: ablations.pool_sizing(
            ws_worker_counts=sizes, clients=clients, duration=duration
        ),
        rounds=1,
        iterations=1,
    )
    record_report("ablation_a1_pool_sizing", report.render())
    small = report.extras[f"ws={sizes[0]}"]["delivered"]
    big = report.extras[f"ws={sizes[-1]}"]["delivered"]
    assert big >= small


def test_a2_batching(benchmark, paper_scale, record_report):
    clients, duration = (30, 20.0) if paper_scale else (15, 10.0)
    report = benchmark.pedantic(
        lambda: ablations.batching(clients=clients, duration=duration),
        rounds=1,
        iterations=1,
    )
    record_report("ablation_a2_batching", report.render())
    batched = report.extras["batch=8, pipelined"]
    serial = report.extras["batch=1, persistent"]
    per_msg = report.extras["batch=1, conn-per-msg"]
    # §4.1: batching over persistent connections "is more efficient than
    # opening multiple short lived connections"
    assert batched["delivered"] > per_msg["delivered"]
    assert batched["delivered"] >= serial["delivered"]


def test_a4_reliability(benchmark, record_report):
    report = benchmark.pedantic(
        lambda: ablations.reliability(downtime=5.0, messages=50, ttl=30.0),
        rounds=1,
        iterations=1,
    )
    record_report("ablation_a4_reliability", report.render())
    assert report.extras["backoff x8"]["delivered"] == 50
    assert report.extras["no-retry"]["delivered"] == 0


def test_a5_envelope_fast_path(benchmark, paper_scale, record_report):
    """Scanner fast path vs DOM slow path: the per-message envelope cost."""
    row = benchmark.pedantic(
        lambda: measure_pair(64 * 1024, batch=8, paper_scale=paper_scale),
        rounds=1,
        iterations=1,
    )
    record_report(
        "ablation_a5_fastpath",
        "variant\tmsgs/s\tbytes_decoded\n"
        f"fast path\t{row['fast_msgs_per_sec']:.0f}\t{row['fast_bytes_decoded']}\n"
        f"slow path (DOM)\t{row['slow_msgs_per_sec']:.0f}\t{row['slow_bytes_decoded']}\n"
        f"speedup\t{row['speedup']:.2f}x",
    )
    # the ratio is the DOM parser's cost, reported; the splice must not lose
    assert row["fast_msgs_per_sec"] >= row["slow_msgs_per_sec"]

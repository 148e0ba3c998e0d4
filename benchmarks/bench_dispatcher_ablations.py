"""Ablation A5: the envelope fast path.

A1 (pools), A2 (batching) and A4 (reliability) are CLI experiments with
their own checks: ``python -m repro.experiments pool-sizing|batching|
reliability``.
"""

from bench_fastpath import measure_pair


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

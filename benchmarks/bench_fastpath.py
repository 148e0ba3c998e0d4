"""Zero-copy envelope fast path vs the full DOM round trip.

The dispatcher's per-message envelope work is parse → WS-Addressing
rewrite → serialize.  The slow path decodes the whole document, builds an
element tree (Body included), and re-serializes every byte of it.  The
fast path scans byte offsets, DOM-parses only the Header block, and
splices the rewritten header bytes between the untouched preamble and
Body slices — so its cost is O(header) plus one ``bytes.find``-driven
skip over the Body, not O(document) tree work.

Sweep body size (1 KiB – 256 KiB) × drain batch size, measure forwarded
messages/sec for both paths plus the bytes-decoded / bytes-copied model,
and gate what the fast path promises: it is never slower than the DOM
round trip at any body size, and its own rate hardly depends on the body
(256 KiB bodies forward at ≥ 0.5× the 1 KiB rate).  The fast/slow ratio
is reported, not gated: it measures the DOM parser, and was 27.8× at
64 KiB only while that parser walked text one character at a time.
Results land in ``benchmarks/out/fastpath.txt`` (human) and
``BENCH_fastpath.json`` at the repo root (machine).
"""

from __future__ import annotations

import time

from _perfjson import write_bench_json
from repro.soap import Envelope, LazyEnvelope
from repro.workload.echo import make_echo_message
from repro.wsa import rewrite_for_forwarding

OWN_ADDRESS = "http://wsd:8000/msg"
PHYSICAL = "http://inside:9000/echo"

BODY_KIB = (1, 16, 64, 256)
BATCH_SIZES = (1, 8)
#: fast-path msgs/s at the largest body over the smallest, at batch 1
GATE_SIZE_INDEPENDENCE = 0.5


def make_payload(body_bytes: int) -> bytes:
    env = make_echo_message(
        to="urn:wsd:echo", message_id="uuid:bench-fastpath",
        target_bytes=body_bytes,
    )
    return env.to_bytes()


def forward_fast(data: bytes) -> bytes:
    result = rewrite_for_forwarding(
        LazyEnvelope.from_bytes(data), PHYSICAL, OWN_ADDRESS
    )
    return result.envelope.to_bytes()


def forward_slow(data: bytes) -> bytes:
    result = rewrite_for_forwarding(
        Envelope.from_bytes(data), PHYSICAL, OWN_ADDRESS
    )
    return result.envelope.to_bytes()


def _throughput(forward, data: bytes, batch: int, batches: int) -> float:
    """Forwarded msgs/sec over ``batches`` drains of ``batch`` messages."""
    forward(data)  # warm up (first-call imports, code paths)
    t0 = time.perf_counter()
    for _ in range(batches):
        for _ in range(batch):
            forward(data)
    elapsed = time.perf_counter() - t0
    return (batches * batch) / elapsed


def measure_pair(body_bytes: int, batch: int, paper_scale: bool = False) -> dict:
    """One sweep point: fast vs slow throughput + the bytes-touched model."""
    data = make_payload(body_bytes)
    # keep wall time flat across sizes: fewer iterations for bigger bodies
    target = 8 * 1024 * 1024 if paper_scale else 2 * 1024 * 1024
    batches = max(3, min(200, target // (len(data) * batch)))

    fast_mps = _throughput(forward_fast, data, batch, batches)
    slow_mps = _throughput(forward_slow, data, batch, batches)

    lazy = LazyEnvelope.from_bytes(data)
    scan = lazy._scan
    out_fast = forward_fast(data)
    # bytes model: the slow path decodes the whole document and re-encodes
    # all of it; the fast path decodes only the Header span and copies the
    # preamble/Body through a single splice join.
    return {
        "body_kib": body_bytes // 1024,
        "doc_bytes": len(data),
        "batch": batch,
        "messages": batches * batch,
        "fast_msgs_per_sec": round(fast_mps, 1),
        "slow_msgs_per_sec": round(slow_mps, 1),
        "speedup": round(fast_mps / slow_mps, 2),
        "fast_bytes_decoded": scan.tail_start - scan.splice_start,
        "slow_bytes_decoded": len(data),
        "fast_bytes_copied": len(out_fast),
        "slow_bytes_copied": len(data) + len(out_fast),
    }


def run_sweep(paper_scale: bool = False) -> dict:
    rows = [
        measure_pair(kib * 1024, batch, paper_scale)
        for kib in BODY_KIB
        for batch in BATCH_SIZES
    ]
    fast = {
        r["body_kib"]: r["fast_msgs_per_sec"] for r in rows if r["batch"] == 1
    }
    return {
        "benchmark": "fastpath",
        "rows": rows,
        "gate": {
            "min_speedup_any_row": min(r["speedup"] for r in rows),
            "min_size_independence": GATE_SIZE_INDEPENDENCE,
            "size_independence": round(fast[BODY_KIB[-1]] / fast[BODY_KIB[0]], 2),
        },
    }


def render(payload: dict) -> str:
    header = (
        "body_kib\tbatch\tfast_msgs/s\tslow_msgs/s\tspeedup\t"
        "fast_dec_B\tslow_dec_B"
    )
    lines = [header]
    for r in payload["rows"]:
        lines.append(
            f"{r['body_kib']}\t{r['batch']}\t{r['fast_msgs_per_sec']:.0f}\t"
            f"{r['slow_msgs_per_sec']:.0f}\t{r['speedup']:.2f}x\t"
            f"{r['fast_bytes_decoded']}\t{r['slow_bytes_decoded']}"
        )
    gate = payload["gate"]
    lines.append(
        f"gate: fast/slow >= {gate['min_speedup_any_row']:.2f}x on every row "
        f"(needs >= 1.0x); fast path at {BODY_KIB[-1]} KiB runs at "
        f"{gate['size_independence']:.2f}x its {BODY_KIB[0]} KiB rate "
        f"(needs >= {gate['min_size_independence']:.1f}x)"
    )
    return "\n".join(lines)


def test_fastpath_speedup(benchmark, paper_scale, record_report):
    payload = benchmark.pedantic(
        lambda: run_sweep(paper_scale), rounds=1, iterations=1
    )
    record_report("fastpath", render(payload))
    write_bench_json("fastpath", payload)
    # every sweep point produced byte-identical-semantics output already
    # covered by tests/soap/test_lazy.py; here we gate the perf claim
    assert payload["gate"]["min_speedup_any_row"] >= 1.0
    assert payload["gate"]["size_independence"] >= GATE_SIZE_INDEPENDENCE
    # the fast path must decode only the header region, not the document
    for row in payload["rows"]:
        assert row["fast_bytes_decoded"] < row["slow_bytes_decoded"] / 4

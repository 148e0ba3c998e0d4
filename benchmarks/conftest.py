"""Benchmark harness configuration.

Each figure/table benchmark runs its experiment once (timed with
``benchmark.pedantic``), prints the regenerated rows/series, and writes
them under ``benchmarks/out/`` (untracked; the perf-smoke CI job uploads
the directory as its artifact).

Scale: ``--paper-scale`` runs the paper's full parameters (60 s simulated
per point, full client grids).  The default is a reduced grid that still
exercises every regime of every curve.
"""

from __future__ import annotations

import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run experiments at the paper's full parameters",
    )


@pytest.fixture
def paper_scale(request) -> bool:
    return request.config.getoption("--paper-scale")


@pytest.fixture
def require_fds():
    """Guard for connection-scaling benchmarks: skip — loudly, and with a
    ``skipped`` record in the benchmark's JSON artifact — when the file
    descriptor limit cannot hold the requested client count.  A benchmark
    that silently OOM-kills itself on EMFILE half-way through looks like
    a perf regression; a recorded skip looks like what it is."""

    def _require(bench_name: str, clients: int, headroom: int = 256) -> int:
        import _perfjson

        limit = _perfjson.fd_soft_limit()
        wanted = clients + headroom
        if limit is not None and limit < wanted:
            reason = (
                f"RLIMIT_NOFILE soft limit is {limit} but {bench_name} needs "
                f"~{wanted} fds ({clients} client connections + {headroom} "
                f"headroom); raise it (ulimit -n {wanted}) to run this "
                "benchmark"
            )
            _perfjson.write_bench_skipped(
                bench_name, reason, fd_limit=limit, clients=clients
            )
            pytest.skip(reason)
        return limit if limit is not None else wanted

    return _require


@pytest.fixture
def require_cpus():
    """Guard for multi-core scaling benchmarks: skip — with a ``skipped``
    record in the artifact — when the host cannot hand out enough cores.
    A 4-shard scaling number measured on a 1-core box is just a context
    switching benchmark; recording the skip keeps the artifact honest."""

    def _require(bench_name: str, needed: int) -> int:
        import os

        import _perfjson

        cpus = os.cpu_count() or 1
        if cpus < needed:
            reason = (
                f"host has {cpus} CPU(s) but {bench_name} measures "
                f"scaling across {needed}; run on a >= {needed}-core host"
            )
            _perfjson.write_bench_skipped(
                bench_name, reason, cpus=cpus, cpus_needed=needed
            )
            pytest.skip(reason)
        return cpus

    return _require


@pytest.fixture
def record_report():
    """Write an experiment report to benchmarks/out/<name>.txt and stdout."""

    def _record(name: str, text: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n")

    return _record

"""Machine-readable benchmark artifacts.

The perf-smoke CI job runs a subset of benchmarks and archives
``BENCH_<name>.json`` files written at the repo root (untracked: every run
rewrites them with the host's numbers), so perf numbers are diffable
across runs without scraping pytest output.  Keep payloads flat
JSON (lists of row dicts plus a ``gate`` summary) — the artifact is the
interface.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def host_info() -> dict:
    """What the numbers were measured on.  ``cpus`` matters most: the
    sharding benchmarks are meaningless without knowing how many cores
    the host could actually hand out."""
    return {
        "cpus": os.cpu_count() or 1,
        "platform": platform.system().lower(),
        "python": platform.python_version(),
    }


def write_bench_json(name: str, payload: dict) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` at the repo root; returns the path.

    Stamps ``cpus`` into every artifact (unless the benchmark already
    set it) so historical perf numbers stay comparable across hosts."""
    payload.setdefault("cpus", os.cpu_count() or 1)
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def merge_bench_json(name: str, updates: dict) -> pathlib.Path:
    """Merge ``updates`` into an existing ``BENCH_<name>.json``.

    Lets two tests in one benchmark module contribute sections to one
    artifact without caring which ran first (or alone)."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    payload: dict = {"benchmark": name}
    if path.exists():
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            pass  # torn artifact from a dead run: start over
    payload.update(updates)
    return write_bench_json(name, payload)


def fd_soft_limit() -> int | None:
    """The process's RLIMIT_NOFILE soft limit (None where unsupported)."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    try:
        return resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    except (OSError, ValueError):
        return None


def write_bench_skipped(name: str, reason: str, **details) -> pathlib.Path:
    """Record a skipped benchmark in its artifact — a missing JSON reads
    as "never ran", a ``skipped`` entry as "ran and declined, here's why"."""
    return write_bench_json(
        name, {"benchmark": name, "skipped": True, "reason": reason, **details}
    )

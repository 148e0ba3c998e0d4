"""Readers for ``/proc/<pid>``: CPU time, peak RSS, context switches and
thread count of one process, seen from outside it."""

from __future__ import annotations

import os

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def parse_cpu_ticks(stat_text: str) -> int:
    """utime + stime (clock ticks) from the text of ``/proc/<pid>/stat``.

    The command name (field 2) may hold spaces and parentheses, so the
    fields are counted from the last ``)``."""
    fields = stat_text.rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


def parse_status(status_text: str) -> dict[str, int]:
    """The numeric fields of ``/proc/<pid>/status`` (kB units dropped)."""
    out: dict[str, int] = {}
    for line in status_text.splitlines():
        key, _, rest = line.partition(":")
        parts = rest.split()
        if parts and parts[0].isdigit():
            out[key] = int(parts[0])
    return out


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii", errors="replace") as handle:
        return handle.read()


def cpu_seconds(pid: int) -> float:
    """User + system CPU the process has used, all threads, dead ones too."""
    return parse_cpu_ticks(_read(f"/proc/{pid}/stat")) * _TICK_S


def rss_peak_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``), MB."""
    return parse_status(_read(f"/proc/{pid}/status"))["VmHWM"] / 1024.0


def thread_count(pid: int) -> int:
    return parse_status(_read(f"/proc/{pid}/status"))["Threads"]


def ctx_switches(pid: int) -> int:
    """Voluntary + involuntary context switches summed over the live
    threads (the per-process file only covers the main thread)."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            status = parse_status(_read(f"/proc/{pid}/task/{tid}/status"))
        except FileNotFoundError:
            continue  # the thread ended between listdir and open
        total += status["voluntary_ctxt_switches"] + status["nonvoluntary_ctxt_switches"]
    return total

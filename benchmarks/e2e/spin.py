"""Idle-priority spinner: keeps one CPU out of the host's idle states.

On this kind of host a vCPU that goes idle is slow for tens of
milliseconds after it wakes (the same kernel reads 30 ms in a tight loop
and 35-55 ms after a 0.3 s sleep), and a closed-loop workload idles a
CPU on every hop.  One spinner per CPU at ``SCHED_IDLE`` removes that:
it runs only when nothing else wants the CPU and is preempted the moment
anything does.  It is part of the harness, imports nothing but the
standard library, and exits as soon as its launcher is gone.

Run as ``python spin.py <cpu>``.
"""

import os
import sys


def main(argv: list[str]) -> int:
    launcher = os.getppid()
    os.sched_setaffinity(0, {int(argv[0])})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:
        os.nice(19)  # the closest an unprivileged sandbox may allow
    while os.getppid() == launcher:
        for _ in range(100_000):
            pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""The /proc readers, on canned text and on this process."""

import os
import threading

import procstat

STAT = (
    "4242 (python3 (wsd) x) S 1 4242 4242 0 -1 4194304 9000 0 0 0 "
    "151 49 0 0 20 0 15 0 100 300000000 6000 18446744073709551615 " + "0 " * 30
)
STATUS = """Name:\tpython3
VmHWM:\t   25424 kB
VmRSS:\t   25000 kB
Threads:\t15
voluntary_ctxt_switches:\t120
nonvoluntary_ctxt_switches:\t7
"""


def test_cpu_ticks_survive_a_hostile_command_name():
    assert procstat.parse_cpu_ticks(STAT) == 151 + 49


def test_status_fields():
    status = procstat.parse_status(STATUS)
    assert status["VmHWM"] == 25424
    assert status["Threads"] == 15
    assert status["voluntary_ctxt_switches"] + status["nonvoluntary_ctxt_switches"] == 127
    assert "Name" not in status


def test_readers_on_this_process():
    pid = os.getpid()
    before = procstat.cpu_seconds(pid)
    x = 0
    while procstat.cpu_seconds(pid) - before < 0.05:
        x += sum(range(10_000))
    assert procstat.rss_peak_mb(pid) > 1.0
    assert procstat.ctx_switches(pid) >= 0

    release = threading.Event()
    extra = threading.Thread(target=release.wait)
    threads = procstat.thread_count(pid)
    extra.start()
    try:
        assert procstat.thread_count(pid) == threads + 1
    finally:
        release.set()
        extra.join(5.0)

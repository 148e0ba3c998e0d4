"""Workloads and test clients reproducing the paper's evaluation rig.

"All experiments were conducted with a test client that can ramp up
number of connections and record statistical data.  The test client runs
with a specified number of connections (clients) and keeps sending echo
message (packets) for one minute."
"""

from repro.workload.echo import (
    ECHO_NS,
    EchoService,
    AsyncEchoService,
    make_echo_request,
    make_echo_message,
)
from repro.workload.results import RunResult, Series, render_table

__all__ = [
    "ECHO_NS",
    "EchoService",
    "AsyncEchoService",
    "make_echo_request",
    "make_echo_message",
    "RunResult",
    "Series",
    "render_table",
]

"""What one Figure 6 point costs the simulator, and what it prints.

The MSG-D + MsgBox series at 20 clients x 2 s is the ``sim_fig6``
benchmark's repetition: its kernel events per transmitted message are
capped, no link transfer may run as a process of its own, and the
rendered report must not move by a byte.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig6
from repro.simnet import kernel

#: events per transmitted message on the MSG-D + MsgBox point (68.1 when
#: every link transfer was a generator process; 44.9 as a callback chain)
EVENTS_PER_MSG = 46

GOLDEN_RENDER = (
    "== Figure 6 ==\n"
    "Asynchronous communication: one-way echo messages/minute vs clients for"
    " direct / dispatcher / dispatcher+msgbox\n"
    "\n"
    "# Fig6 messages/minute [per_minute]\n"
    "clients\tone-way direct (response blocked)\tMSG-Dispatcher\tMSG-D + MsgBox\n"
    "20\t960\t5880\t6720\n"
    "\n"
    "note: one-way direct (response blocked): peak 960/min at 20 clients,"
    " total lost 0\n"
    "MSG-Dispatcher: peak 5880/min at 20 clients, total lost 0\n"
    "MSG-D + MsgBox: peak 6720/min at 20 clients, total lost 0"
)


@pytest.fixture(scope="module")
def point():
    """``fig6.run([20], 2.0)`` and the name of every process it started."""
    names: list[str] = []
    started = kernel.Process.__init__

    def recording(self, sim, gen, name="proc"):
        names.append(name)
        started(self, sim, gen, name)

    kernel.Process.__init__ = recording
    try:
        report = fig6.run([20], 2.0)
    finally:
        kernel.Process.__init__ = started
    return report, names


def test_msgbox_point_stays_within_its_event_budget(point):
    report, _ = point
    transmitted = report.series_by_label("MSG-D + MsgBox").results[0].transmitted
    kernel_counts = report.extras["MSG-D + MsgBox@20:kernel"]
    assert transmitted == 224
    assert kernel_counts["events"] <= EVENTS_PER_MSG * transmitted
    assert kernel_counts["processes"] > 0


def test_no_link_transfer_runs_as_a_process(point):
    _, names = point
    assert names, "the recorder saw no process at all"
    assert [n for n in names if n.startswith("xfer")] == []


def test_every_point_reports_its_kernel_counts(point):
    report, _ = point
    for mode in fig6.MODES:
        counts = report.extras[f"{mode}@20:kernel"]
        assert counts["events"] > 0 and counts["processes"] > 0


def test_rendered_report_is_byte_identical(point):
    report, _ = point
    assert report.render() == GOLDEN_RENDER

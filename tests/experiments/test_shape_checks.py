"""Unit tests for the experiment shape-check logic (synthetic data).

The shape checks are the acceptance criteria for the reproduction; these
tests pin their behaviour on hand-built series so a regression in a check
is distinguishable from a regression in the simulation.
"""

from repro.experiments import ablations, fig4, fig5, fig6, table1
from repro.experiments.common import ExperimentReport, paper_shape_summary
from repro.experiments.table1 import QuadrantResult
from repro.workload.results import RunResult, Series


def make_result(clients, tx, lost=0, duration=60.0):
    return RunResult(clients=clients, duration=duration, transmitted=tx, not_sent=lost)


def series(label, points):
    s = Series(label)
    for clients, tx, lost in points:
        s.add(make_result(clients, tx, lost))
    return s


def report_with(*series_list) -> ExperimentReport:
    return ExperimentReport(experiment="x", description="", series=list(series_list))


class TestFig4Checks:
    def good(self):
        return report_with(
            series("direct", [(10, 1000, 0), (500, 2500, 3000), (2000, 2500, 90000)]),
            series("dispatcher", [(10, 950, 0), (500, 2400, 3100), (2000, 2400, 91000)]),
        )

    def test_good_shape_passes(self):
        assert fig4.check_shape(self.good()) == []

    def test_loss_at_small_count_fails(self):
        bad = report_with(
            series("direct", [(10, 1000, 50), (2000, 2500, 90000)]),
            series("dispatcher", [(10, 950, 0), (2000, 2400, 91000)]),
        )
        assert any("loss at smallest" in f for f in fig4.check_shape(bad))

    def test_no_loss_at_large_count_fails(self):
        bad = report_with(
            series("direct", [(10, 1000, 0), (2000, 90000, 10)]),
            series("dispatcher", [(10, 950, 0), (2000, 89000, 10)]),
        )
        assert any("heavy loss" in f for f in fig4.check_shape(bad))

    def test_dispatcher_collapse_detected(self):
        bad = report_with(
            series("direct", [(10, 1000, 0), (500, 2500, 3000)]),
            series("dispatcher", [(10, 100, 0), (500, 300, 3000)]),
        )
        assert any("collapses" in f for f in fig4.check_shape(bad))


class TestFig5Checks:
    def good(self):
        return report_with(
            series("Direct WS-RPC", [(10, 1000, 0), (100, 5000, 0), (300, 5200, 0)]),
            series("With RPC-Dispatcher", [(10, 950, 0), (100, 4800, 0), (300, 5000, 0)]),
        )

    def test_good_shape_passes(self):
        assert fig5.check_shape(self.good()) == []

    def test_loss_fails(self):
        bad = report_with(
            series("Direct WS-RPC", [(10, 1000, 5), (100, 5000, 0), (300, 5200, 0)]),
            series("With RPC-Dispatcher", [(10, 950, 0), (100, 4800, 0), (300, 5000, 0)]),
        )
        assert any("zero loss" in f for f in fig5.check_shape(bad))

    def test_still_scaling_at_top_fails(self):
        bad = report_with(
            series("Direct WS-RPC", [(10, 100, 0), (100, 1000, 0), (300, 9000, 0)]),
            series("With RPC-Dispatcher", [(10, 95, 0), (100, 950, 0), (300, 8500, 0)]),
        )
        assert any("still scaling" in f for f in fig5.check_shape(bad))

    def test_dispatcher_overhead_fails(self):
        bad = report_with(
            series("Direct WS-RPC", [(10, 1000, 0), (100, 5000, 0), (300, 5100, 0)]),
            series("With RPC-Dispatcher", [(10, 100, 0), (100, 500, 0), (300, 510, 0)]),
        )
        assert any("overhead" in f for f in fig5.check_shape(bad))


class TestFig6Checks:
    def test_good_ordering_passes(self):
        good = report_with(
            series(fig6.MODES[0], [(1, 400, 0), (30, 480, 0)]),
            series(fig6.MODES[1], [(1, 200, 0), (30, 230, 0)]),
            series(fig6.MODES[2], [(1, 410, 0), (30, 5000, 0)]),
        )
        assert fig6.check_shape(good) == []

    def test_msgbox_not_best_fails(self):
        bad = report_with(
            series(fig6.MODES[0], [(30, 6000, 0)]),
            series(fig6.MODES[1], [(30, 230, 0)]),
            series(fig6.MODES[2], [(30, 5000, 0)]),
        )
        assert any("not best" in f for f in fig6.check_shape(bad))

    def test_dispatcher_not_slowest_fails(self):
        bad = report_with(
            series(fig6.MODES[0], [(30, 480, 0)]),
            series(fig6.MODES[1], [(30, 2000, 0)]),
            series(fig6.MODES[2], [(30, 5000, 0)]),
        )
        assert any("slowest" in f for f in fig6.check_shape(bad))

    def test_small_counts_exempt_from_ordering(self):
        ok = report_with(
            series(fig6.MODES[0], [(5, 480, 0)]),
            series(fig6.MODES[1], [(5, 2000, 0)]),  # fine below 10 clients
            series(fig6.MODES[2], [(5, 100, 0)]),
        )
        assert fig6.check_shape(ok) == []


class TestTable1Checks:
    def report(self, **overrides) -> ExperimentReport:
        results = {
            1: QuadrantResult(1, True, False, 480.0),
            2: QuadrantResult(2, True, False, 480.0),
            3: QuadrantResult(3, True, False, 60.0),
            4: QuadrantResult(4, True, True, 4000.0),
        }
        results.update(overrides)
        report = ExperimentReport(experiment="t1", description="")
        report.extras["results"] = results
        return report

    def test_good_matrix_passes(self):
        assert table1.check_shape(self.report()) == []

    def test_broken_quadrant_detected(self):
        bad = self.report()
        bad.extras["results"][2] = QuadrantResult(2, False, False, 0.0)
        assert any("broken" in f for f in table1.check_shape(bad))

    def test_rpc_surviving_slow_service_detected(self):
        bad = self.report()
        bad.extras["results"][1] = QuadrantResult(1, True, True, 480.0)
        assert any("time limits" in f for f in table1.check_shape(bad))

    def test_q4_must_be_unlimited(self):
        bad = self.report()
        bad.extras["results"][4] = QuadrantResult(4, True, False, 4000.0)
        assert any("quadrant 4" in f for f in table1.check_shape(bad))

    def test_q3_bottleneck_required(self):
        bad = self.report()
        bad.extras["results"][3] = QuadrantResult(3, True, False, 9000.0)
        assert any("bottleneck" in f for f in table1.check_shape(bad))

    def test_verdict_property(self):
        assert QuadrantResult(4, True, True, 1.0).verdict == "unlimited"
        assert QuadrantResult(1, True, False, 1.0).verdict == "limited"
        assert QuadrantResult(2, False, False, 1.0).verdict == "broken"


def extras_report(extras) -> ExperimentReport:
    report = ExperimentReport(experiment="x", description="")
    report.extras.update(extras)
    return report


class TestPoolSizingChecks:
    def report(self, one=(531, 258), sixteen=(691, 346)) -> ExperimentReport:
        return extras_report({
            f"ws={size}": {"accepted_per_min": 7800.0, "delivered": d, "deposits": dep}
            for size, (d, dep) in ((1, one), (16, sixteen))
        })

    def test_good_sweep_passes(self):
        assert ablations.check_pool_sizing(self.report()) == []

    def test_bigger_pool_delivering_less_fails(self):
        bad = self.report(sixteen=(400, 200))
        assert any("delivered less" in f for f in ablations.check_pool_sizing(bad))

    def test_no_deposits_fails(self):
        bad = self.report(one=(531, 0))
        assert any("ws=1" in f for f in ablations.check_pool_sizing(bad))


class TestBatchingChecks:
    def report(self, **batched) -> ExperimentReport:
        return extras_report({
            "batch=8, pipelined": {"delivered": 691, "fresh_connects": 2, **batched},
            "batch=1, persistent": {"delivered": 192, "fresh_connects": 2},
            "batch=1, conn-per-msg": {"delivered": 105, "fresh_connects": 106},
        })

    def test_good_variants_pass(self):
        assert ablations.check_batching(self.report()) == []

    def test_batching_no_better_than_conn_per_msg_fails(self):
        bad = self.report(delivered=105)
        assert any("connection-per-message" in f for f in ablations.check_batching(bad))

    def test_batching_behind_one_by_one_fails(self):
        bad = self.report(delivered=150)
        assert any("one-by-one" in f for f in ablations.check_batching(bad))

    def test_batching_opening_as_many_connections_fails(self):
        bad = self.report(fresh_connects=106)
        assert any("fewer connections" in f for f in ablations.check_batching(bad))


class TestReliabilityChecks:
    def report(self, no_retry=0, backoff=50) -> ExperimentReport:
        return extras_report({
            "no-retry": {"held": 50, "delivered": no_retry, "expired": 50 - no_retry},
            "backoff x8": {"held": 50, "delivered": backoff, "expired": 50 - backoff},
        })

    def test_good_policies_pass(self):
        assert ablations.check_reliability(self.report()) == []

    def test_single_attempt_surviving_outage_fails(self):
        bad = self.report(no_retry=3)
        assert any("single attempt" in f for f in ablations.check_reliability(bad))

    def test_backoff_losing_messages_fails(self):
        bad = self.report(backoff=49)
        assert any("49 of 50" in f for f in ablations.check_reliability(bad))


def test_paper_shape_summary_renders():
    s = series("direct", [(10, 600, 5)])
    text = paper_shape_summary([s])
    assert "direct" in text and "600" in text and "5" in text


def test_report_render_and_lookup():
    report = report_with(series("a", [(1, 10, 0)]))
    report.tables.append("table text")
    report.notes.append("a note")
    out = report.render()
    assert "table text" in out and "a note" in out
    assert report.series_by_label("a").label == "a"
    import pytest

    with pytest.raises(KeyError):
        report.series_by_label("missing")

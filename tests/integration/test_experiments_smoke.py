"""Scaled-down smoke runs of every experiment, with shape assertions.

The full-scale paper parameters run from ``python -m repro.experiments``
(EXPERIMENTS.md names the flags per table); here each experiment runs a
reduced grid so the whole suite stays fast while still verifying the
qualitative claims end-to-end.
"""

import pytest

from repro.experiments import ablations, fig4, fig5, fig6, table1


@pytest.mark.slow
class TestFig4:
    def test_shape(self):
        report = fig4.run(client_counts=[10, 500], duration=10.0)
        assert fig4.check_shape(report) == []
        direct = report.series_by_label("direct")
        assert direct.results[0].not_sent == 0  # healthy at 10 clients
        assert direct.results[1].not_sent > direct.results[1].transmitted


@pytest.mark.slow
class TestFig5:
    def test_shape(self):
        report = fig5.run(client_counts=[5, 50, 200], duration=10.0)
        assert fig5.check_shape(report) == []
        for series in report.series:
            assert all(r.not_sent == 0 for r in series.results)


@pytest.mark.slow
class TestFig6:
    def test_shape(self):
        report = fig6.run(client_counts=[15, 30], duration=60.0)
        assert fig6.check_shape(report) == []
        mbox = report.series_by_label(fig6.MODES[2])
        direct = report.series_by_label(fig6.MODES[0])
        # mailbox beats direct by a wide margin above 10 clients
        assert mbox.results[-1].per_minute > 2 * direct.results[-1].per_minute


@pytest.mark.slow
class TestTable1:
    def test_verdicts(self):
        report = table1.run(clients=5, duration=10.0)
        assert table1.check_shape(report) == []
        results = report.extras["results"]
        assert results[4].works_slow and not results[1].works_slow


@pytest.mark.slow
class TestAblations:
    def test_msgbox_bug(self):
        report = ablations.msgbox_bug(client_counts=[5, 60])
        assert ablations.check_msgbox_bug(report) == []

    def test_batching_beats_connection_per_message(self):
        report = ablations.batching(clients=15, duration=10.0)
        assert ablations.check_batching(report) == []

    def test_reliability_backoff_survives_outage(self):
        report = ablations.reliability(downtime=5.0, messages=20, ttl=30.0)
        assert ablations.check_reliability(report) == []
        assert report.extras["backoff x8"]["delivered"] == 20

    def test_pool_sizing_monotone_delivery(self):
        report = ablations.pool_sizing(
            ws_worker_counts=[1, 8], clients=15, duration=10.0
        )
        assert ablations.check_pool_sizing(report) == []

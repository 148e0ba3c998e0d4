"""Tests for run results and rendering."""

from repro.workload.results import (
    RunResult,
    Series,
    render_ascii_plot,
    render_table,
)


def result(clients, tx, lost=0, duration=60.0):
    return RunResult(clients=clients, duration=duration, transmitted=tx, not_sent=lost)


class TestRunResult:
    def test_per_minute(self):
        assert result(1, 120, duration=60.0).per_minute == 120.0
        assert result(1, 60, duration=30.0).per_minute == 120.0

    def test_per_minute_zero_duration(self):
        assert result(1, 10, duration=0.0).per_minute == 0.0



class TestSeries:
    def test_accessors(self):
        s = Series("direct")
        s.add(result(10, 100, lost=1))
        s.add(result(20, 200, lost=2))
        assert s.xs() == [10, 20]
        assert s.transmitted() == [100, 200]
        assert s.not_sent() == [1, 2]
        assert s.per_minute() == [100.0, 200.0]


class TestRenderTable:
    def test_columns_align_by_clients(self):
        a = Series("a")
        a.add(result(10, 100))
        b = Series("b")
        b.add(result(10, 90))
        b.add(result(20, 180))
        text = render_table([a, b], "transmitted", title="T")
        lines = text.splitlines()
        assert lines[0] == "# T [transmitted]"
        assert lines[1] == "clients\ta\tb"
        assert lines[2] == "10\t100\t90"
        assert lines[3] == "20\t-\t180"

    def test_per_minute_values(self):
        s = Series("x")
        s.add(result(5, 30, lost=30, duration=30.0))
        table = render_table([s], "per_minute")
        assert "60" in table


class TestRenderAsciiPlot:
    def test_contains_bars(self):
        s = Series("x")
        s.add(result(1, 10))
        s.add(result(2, 100))
        plot = render_ascii_plot([s], "transmitted", width=20)
        assert "#" in plot

    def test_log_scale_handles_zero(self):
        s = Series("x")
        s.add(result(1, 0))
        s.add(result(2, 1000))
        plot = render_ascii_plot([s], "transmitted", log_y=True)
        assert plot  # no crash, renders something

    def test_empty(self):
        assert render_ascii_plot([], "transmitted") == "(no data)"

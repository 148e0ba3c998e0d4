"""Estimator arithmetic: normalisation, window medians, percentiles."""

import pytest

import estimator
from calibrate import CAL_REF_US
from estimator import Window


def window(kind, msgs, elapsed_s, latencies, cpu_s, cal_us):
    return Window(
        kind, msgs=msgs, elapsed_s=elapsed_s, latencies_ms=latencies,
        sut_cpu_s=cpu_s, cal_before_us=cal_us, cal_after_us=cal_us,
    )


def test_normalisation_is_identity_at_reference_speed():
    assert estimator.time_at_reference(3.0, CAL_REF_US) == 3.0
    assert estimator.rate_at_reference(400.0, CAL_REF_US) == 400.0


def test_a_slow_machine_reads_faster_at_reference():
    # the kernel took twice its reference time: durations halve, rates double
    assert estimator.time_at_reference(3.0, 2 * CAL_REF_US) == pytest.approx(1.5)
    assert estimator.rate_at_reference(400.0, 2 * CAL_REF_US) == pytest.approx(800.0)


def test_percentile_interpolates():
    assert estimator.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0
    assert estimator.percentile([1.0, 2.0], 50.0) == 1.5
    assert estimator.percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        estimator.percentile([], 50.0)


def test_smoothing_takes_the_neighbourhood_median():
    assert estimator.smoothed([30.0, 30.0, 90.0, 30.0, 30.0]) == [30.0] * 5
    assert estimator.smoothed([30.0]) == [30.0]


def test_quartile_spread_is_iqr_over_median():
    values = [float(v) for v in range(1, 12)]  # quartiles 3, 6, 9
    assert estimator.quartile_spread(values) == pytest.approx(1.0)


def test_window_median_ignores_one_slow_window():
    windows = [window("c2", 400, 1.0, [2.5] * 400, 0.8, CAL_REF_US) for _ in range(4)]
    windows.append(window("c2", 100, 1.0, [10.0] * 100, 0.8, CAL_REF_US))
    metrics = estimator.end_to_end(windows, "c2", "c2")
    assert metrics["msgs_per_s"] == pytest.approx(400.0)
    assert metrics["latency_p50_ms"] == pytest.approx(2.5)
    assert metrics["cpu_ms_per_msg"] == pytest.approx(2.0)


def test_metrics_come_from_their_own_window_kinds():
    windows = []
    for _ in range(3):
        windows.append(window("c1", 300, 1.0, [3.0] * 300, 0.6, CAL_REF_US))
        windows.append(window("c2", 400, 1.0, [5.0] * 400, 0.8, CAL_REF_US))
    metrics = estimator.end_to_end(windows, "c2", "c1")
    assert metrics["msgs_per_s"] == pytest.approx(400.0)
    assert metrics["latency_p50_ms"] == pytest.approx(3.0)


def test_a_uniformly_slow_machine_does_not_move_the_metrics():
    fast = [window("w", 400, 1.0, [2.0] * 400, 0.8, CAL_REF_US) for _ in range(5)]
    slow = [window("w", 200, 1.0, [4.0] * 200, 0.8, 2 * CAL_REF_US) for _ in range(5)]
    a, b = estimator.end_to_end(fast, "w", "w"), estimator.end_to_end(slow, "w", "w")
    for name in a:
        assert a[name] == pytest.approx(b[name]), name


def test_windows_that_completed_nothing_are_an_error():
    with pytest.raises(ValueError):
        estimator.end_to_end([window("w", 0, 1.0, [], 0.0, CAL_REF_US)], "w", "w")

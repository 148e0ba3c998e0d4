"""Estimator arithmetic: reference-speed normalisation, window medians,
percentiles, and the quartile spread `compare` and the README quote.

Pure functions over plain numbers, so the self-tests can pin them.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from calibrate import CAL_REF_US


def time_at_reference(value: float, cal_us: float) -> float:
    """A duration measured while the kernel took ``cal_us``, scaled to
    what it would have read at the reference machine speed."""
    return value * CAL_REF_US / cal_us


def rate_at_reference(value: float, cal_us: float) -> float:
    """A rate (per second) scaled to the reference machine speed."""
    return value * cal_us / CAL_REF_US


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def smoothed(cals: list[float], half_width: int = 2) -> list[float]:
    """Each calibration replaced by the median of its neighbourhood.

    One 30 ms kernel run is itself a noisy reading; machine speed drifts
    over seconds, so the neighbours are readings of the same speed."""
    return [
        statistics.median(cals[max(0, i - half_width): i + half_width + 1])
        for i in range(len(cals))
    ]


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the run-to-run spread the acceptance rule is stated in."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


@dataclass
class Window:
    """One measured window, bracketed by two calibrations."""

    kind: str
    msgs: int = 0
    elapsed_s: float = 0.0
    #: one entry per unit a user waits for, milliseconds
    latencies_ms: list[float] = field(default_factory=list)
    sut_cpu_s: float = 0.0
    loadgen_cpu_s: float = 0.0
    cal_before_us: float = 0.0
    cal_after_us: float = 0.0
    #: filled by :func:`assign_calibration`
    cal_us: float = 0.0


def assign_calibration(windows: list[Window]) -> None:
    """Give every window the smoothed mean of its bracketing readings."""
    raw = [(w.cal_before_us + w.cal_after_us) / 2.0 for w in windows]
    for window, cal in zip(windows, smoothed(raw)):
        window.cal_us = cal


def median_over(windows: list[Window], value) -> float:
    """Median over windows of ``value(window)``; windows that completed
    nothing carry no value."""
    values = [value(w) for w in windows if w.msgs > 0]
    if not values:
        raise ValueError("no window completed a message")
    return statistics.median(values)


def end_to_end(windows: list[Window], rate_kind: str, latency_kind: str) -> dict[str, float]:
    """The three windowed end-to-end metrics, at reference speed.

    Rate and CPU come from the ``rate_kind`` windows, latency from the
    ``latency_kind`` windows."""
    assign_calibration(windows)
    rate = [w for w in windows if w.kind == rate_kind]
    latency = [w for w in windows if w.kind == latency_kind and w.latencies_ms]
    return {
        "msgs_per_s": median_over(
            rate, lambda w: rate_at_reference(w.msgs / w.elapsed_s, w.cal_us)
        ),
        "latency_p50_ms": median_over(
            latency, lambda w: time_at_reference(percentile(w.latencies_ms, 50.0), w.cal_us)
        ),
        "cpu_ms_per_msg": median_over(
            rate, lambda w: time_at_reference(1e3 * w.sut_cpu_s / w.msgs, w.cal_us)
        ),
    }

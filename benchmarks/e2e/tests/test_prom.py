"""``/metrics`` delta parsing."""

import pytest

import prom

BEFORE = """# HELP soap_fastpath_total parses
# TYPE soap_fastpath_total counter
soap_fastpath_total{outcome="fast"} 100
# HELP msgd_stage_seconds stage latency
# TYPE msgd_stage_seconds histogram
msgd_stage_seconds_bucket{stage="admit",le="0.02"} 10
msgd_stage_seconds_bucket{stage="admit",le="+Inf"} 10
msgd_stage_seconds_sum{stage="admit"} 0.5
msgd_stage_seconds_count{stage="admit"} 10
"""
AFTER = """# HELP soap_fastpath_total parses
# TYPE soap_fastpath_total counter
soap_fastpath_total{outcome="fast"} 156
soap_fastpath_total{outcome="encoding"} 8
# HELP msgd_stage_seconds stage latency
# TYPE msgd_stage_seconds histogram
msgd_stage_seconds_bucket{stage="admit",le="0.02"} 30
msgd_stage_seconds_bucket{stage="admit",le="+Inf"} 30
msgd_stage_seconds_sum{stage="admit"} 0.9
msgd_stage_seconds_count{stage="admit"} 30
"""


def test_delta_counts_new_series_from_zero():
    counted = prom.delta(prom.flatten(AFTER), prom.flatten(BEFORE))
    assert prom.total(counted, "soap_fastpath_total", outcome="fast") == 56
    assert prom.total(counted, "soap_fastpath_total", outcome="encoding") == 8
    assert prom.total(counted, "soap_fastpath_total") == 64
    assert prom.share(counted, "soap_fastpath_total", outcome="fast") == pytest.approx(0.875)


def test_histogram_sum_and_count_subtract():
    counted = prom.delta(prom.flatten(AFTER), prom.flatten(BEFORE))
    seconds = prom.total(counted, "msgd_stage_seconds_sum", stage="admit")
    count = prom.total(counted, "msgd_stage_seconds_count", stage="admit")
    assert seconds / count == pytest.approx(0.02)


def test_absent_family_is_zero():
    counted = prom.delta(prom.flatten(AFTER), prom.flatten(BEFORE))
    assert prom.total(counted, "dispatcher_shed_total") == 0
    assert prom.share(counted, "registry_cache_total", outcome="hit") == 0.0

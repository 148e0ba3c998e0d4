"""Span, counter and budget arithmetic of the traced pass, on canned data."""

import pytest

import layers
from calibrate import CAL_REF_US
from estimator import Window
from workloads import Phase


def phase(**fields) -> Phase:
    windows = [Window("c2", msgs=100, elapsed_s=1.0, cal_before_us=CAL_REF_US,
                      cal_after_us=CAL_REF_US)]
    return Phase(windows, **fields)


def test_fig6_spans_telescope_to_the_latency():
    stamped = phase(
        loadgen_stamps=[("a", 10.0, 10.0005, 10.003), ("b", 11.0, 11.0007, 11.004)],
        harness_stamps={
            "arrive": {"a": 10.0012, "b": 11.0015},
            "reply": {"a": 10.0013, "b": 11.0017},
        },
    )
    spans, share = layers.fig6_spans(stamped, "threaded")
    assert share == pytest.approx(1.0)
    assert spans["rt.admit_us"] == pytest.approx(600.0)
    assert spans["core.forward_us"] == pytest.approx(750.0)
    assert spans["harness.ws_us"] == pytest.approx(150.0)
    assert spans["msgbox.reply_to_take_us"] == pytest.approx(2000.0)
    assert "aio.admit_us" in layers.fig6_spans(stamped, "aio")[0]


def test_a_missing_stamp_shows_in_the_share():
    stamped = phase(
        loadgen_stamps=[("a", 10.0, 10.0005, 10.003), ("b", 11.0, 11.0005, 11.003)],
        harness_stamps={"arrive": {"a": 10.001}, "reply": {"a": 10.0012}},
    )
    assert layers.fig6_spans(stamped, "threaded")[1] == pytest.approx(0.5)


def test_bulk_spans_are_per_message_of_the_cycle():
    ids = [f"m{i}" for i in range(64)]
    stamped = phase(
        loadgen_stamps=[(ids, 5.0, 5.064, 5.0704)],
        harness_stamps={"arrive": {"m63": 5.0704}, "reply": {}},
    )
    spans = layers.bulk_spans(stamped)
    assert spans["rt.admit_us"] == pytest.approx(1000.0)
    assert spans["core.drain_us"] == pytest.approx(100.0)
    assert spans["core.forward_us"] == pytest.approx(6400.0)


def test_counter_ratios():
    counted = {
        "soap_fastpath_total": {(("outcome", "fast"),): 56.0, (("outcome", "encoding"),): 8.0},
        "msgd_delivered_total": {(): 64.0},
        "rt_client_pipeline_bursts_total": {(): 10.0},
        "rt_client_request_seconds_count": {(): 6.0},
        "rt_client_conn_reuse_total": {(("outcome", "reused"),): 15.0, (("outcome", "fresh"),): 1.0},
        "registry_cache_total": {(("outcome", "hit"),): 63.0, (("outcome", "miss"),): 1.0},
        "msgd_stage_seconds_sum": {(("stage", "admit"),): 0.0032},
        "msgd_stage_seconds_count": {(("stage", "admit"),): 64.0},
        "dispatcher_deadletter_total": {(("reason", "expired"),): 2.0},
    }
    got = layers.counter_layers(phase(counters=counted, ctx_switches=900, threads=15), "threaded")
    assert got["soap.fastpath_share"] == pytest.approx(0.875)
    assert got["core.batch_mean"] == pytest.approx(4.0)
    assert got["rt.conn_reuse_share"] == pytest.approx(15 / 16)
    assert got["core.registry_cache_hit_share"] == pytest.approx(63 / 64)
    assert got["core.stage_admit_us"] == pytest.approx(50.0)
    assert got["core.stage_deliver_us"] == 0.0
    assert got["core.failed_total"] == 2.0
    assert got["wsd.ctx_switches_per_msg"] == pytest.approx(9.0)
    assert got["wsd.threads"] == 15.0
    assert got["loadgen.cpu_ms_per_msg"] == 0.0


def test_budget_attributes_unit_cost_times_calls():
    costs = {name: 10.0 for name in layers.CALLS_PER_MSG["bulk_mixed"]}
    costs["soap.dom_roundtrip_us"] = 2400.0
    table, share = layers.budget("bulk_mixed", costs, cpu_ms_per_msg=1.0)
    # 5 x 10 + 0.875 x 10 + 0.125 x 2400 = 358.75 us of 1000 us
    assert share == pytest.approx(0.35875)
    assert "unattributed" in table


def test_only_times_and_rates_are_normalised():
    got = layers.at_reference(
        {"a_us": 10.0, "b_per_s": 100.0, "c_share": 0.5}, 2 * CAL_REF_US
    )
    assert got == {"a_us": 5.0, "b_per_s": 200.0, "c_share": 0.5}

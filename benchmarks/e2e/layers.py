"""The traced pass: per-layer metrics from outside the program.

Four sources, none of them inside ``src/``:

- **spans** around calls into the system, from stamps the loadgen and
  the harness's web services take on the shared ``CLOCK_MONOTONIC``;
- **unit costs** of public functions on the workload's own message bytes;
- **ratios** from counters the program already exports, as deltas of its
  ``GET /metrics``;
- **process-level** readings of the ``wsd`` pid, and a Python-call count
  under a ``sys.setprofile`` hook in a pass of its own.

A layer is a module name.  Every traced run reports every layer metric:
one that is not on the workload's own path is filled in by a two-second
stamped probe of a workload that has it (:func:`probe`), so the number
is real but belongs to the probe.  End-to-end numbers never come from
this pass.
"""

from __future__ import annotations

import statistics
import sys
import time

import prom
from calibrate import Bracket
from estimator import (
    assign_calibration,
    end_to_end,
    median_over,
    percentile,
    quartile_spread,
    rate_at_reference,
    time_at_reference,
)
from repro.core import ServiceRegistry
from repro.http import Headers, HttpRequest
from repro.http.wire import RequestParser, serialize_request
from repro.msgbox import MailboxStore, MsgBoxClient
from repro.simnet.kernel import Simulator
from repro.soap import Envelope, LazyEnvelope
from repro.store import MessageJournal
from repro.workload.echo import PAPER_XML_BYTES, make_echo_request
from repro.wsa import rewrite_for_forwarding
from repro.xmlmini import parse, scan_envelope, serialize
from workloads import (
    BULK_BODY_BYTES,
    BULK_CYCLE,
    BULK_SLOW_ONE_IN,
    EchoTemplate,
    Outcome,
    Phase,
    bulk_sender,
    fig6_callers,
    message_id,
    run_bulk,
    run_fig6,
    run_sim,
    sim_repetition,
)
from world import World, get_json, new_client, temp_dir

#: a traced run measures this many seconds of plain windows, then this
#: many with the harness's stamps on; the difference is what stamps cost
PLAIN_S = 3.0
STAMPED_S = 6.0
PROBE_S = 2.0
PROBE_WARMUP = 100
PYCALLS_FIG6_TRIPS = 150
PYCALLS_BULK_CYCLES = 3
RPC_PROBES = 200

RUNTIME_OF = {"fig6_rt": "threaded", "fig6_aio": "aio", "bulk_mixed": "threaded"}


def at_reference(values: dict[str, float], cal_us: float) -> dict[str, float]:
    """``values`` with every wall time (``*_us``) and rate (``*_per_s``)
    scaled to the reference machine speed, given the calibration that
    held while they were measured."""
    out = {}
    for key, value in values.items():
        if key.endswith("_us"):
            value = time_at_reference(value, cal_us)
        elif key.endswith("_per_s"):
            value = rate_at_reference(value, cal_us)
        out[key] = value
    return out


def phase_cal(phase: Phase) -> float:
    """The calibration that held over a phase: the median of its windows'."""
    assign_calibration(phase.windows)
    return statistics.median(w.cal_us for w in phase.windows)


# -- unit costs ----------------------------------------------------------------------

def unit_cost_us(fn, budget_s: float = 0.04) -> float:
    """Median microseconds per call of ``fn`` over batches of ~4 ms."""
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    batch = max(1, int(0.004 / once))
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < 5 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples) * 1e6


def kernel_events_per_s() -> float:
    """``Simulator.events_processed`` per wall second on a timeout
    ping-pong: two processes that wake each other after a timeout."""
    sim = Simulator()
    balls = [sim.event(), sim.event()]

    def player(me: int):
        for _ in range(10_000):
            yield balls[me]
            balls[me] = sim.event()
            yield sim.timeout(0.001)
            balls[1 - me].succeed()

    sim.process(player(0))
    sim.process(player(1))
    balls[0].succeed()
    t0 = time.perf_counter()
    sim.run()
    return sim.events_processed / (time.perf_counter() - t0)


def unit_costs(wire: bytes, scratch: str) -> dict[str, float]:
    """Cost per call of the public functions the message path is made of,
    on ``wire`` (a serialised envelope the workload sends), at reference
    speed by the calibrations taken around them."""
    with Bracket() as bracket:
        costs = _unit_costs(wire, scratch)
    return at_reference(costs, bracket.cal_us)


def _unit_costs(wire: bytes, scratch: str) -> dict[str, float]:
    headers = Headers()
    headers.set("Content-Type", "text/xml; charset=utf-8")
    headers.set("Host", "127.0.0.1:8000")
    request = HttpRequest("POST", "/msg/echo-msg", headers=headers, body=wire)
    http_wire = serialize_request(request)
    tree = parse(wire)
    lazy = LazyEnvelope.from_bytes(wire)
    registry = ServiceRegistry()
    for name in World.SERVICES:
        registry.register(name, f"http://127.0.0.1:9000/{name}")
    store = MailboxStore()
    box = store.create()

    def parse_request():
        parser = RequestParser()
        parser.feed(http_wire)
        return parser.next_message()

    deposit, take = [], []
    for _ in range(20):
        t0 = time.perf_counter()
        for _ in range(50):
            store.deposit(box, wire)
        t1 = time.perf_counter()
        for _ in range(50):
            store.take(box, 1)
        deposit.append((t1 - t0) / 50)
        take.append((time.perf_counter() - t1) / 50)
    costs = {
        "http.parse_request_us": unit_cost_us(parse_request),
        "http.serialize_request_us": unit_cost_us(lambda: serialize_request(request)),
        "xmlmini.scan_us": unit_cost_us(lambda: scan_envelope(wire)),
        "xmlmini.parse_us": unit_cost_us(lambda: parse(wire)),
        "xmlmini.serialize_us": unit_cost_us(lambda: serialize(tree)),
        "soap.lazy_splice_us": unit_cost_us(lazy.to_bytes),
        "soap.dom_roundtrip_us": unit_cost_us(lambda: Envelope.from_bytes(wire).to_bytes()),
        "wsa.rewrite_us": unit_cost_us(
            lambda: rewrite_for_forwarding(
                lazy, "http://127.0.0.1:9000/echo-msg", "http://127.0.0.1:8000/msg"
            )
        ),
        "core.registry_lookup_us": unit_cost_us(lambda: registry.resolve("echo-msg")),
        "msgbox.deposit_us": _median_us(deposit),
        "msgbox.take_us": _median_us(take),
        "simnet.kernel_events_per_s": statistics.median(
            kernel_events_per_s() for _ in range(5)
        ),
    }
    for mode in ("group", "always", "lazy"):
        with MessageJournal(f"{scratch}/journal-{mode}.db", sync=mode) as journal:
            appended = [0]

            def append():
                appended[0] += 1
                journal.append(
                    f"uuid:unit-{appended[0]}", "http://127.0.0.1:9000/echo-msg", wire
                )

            costs[f"store.append_{mode}_us"] = unit_cost_us(append)
    return costs


# -- spans ------------------------------------------------------------------------------

def _median_us(values: list[float]) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def fig6_spans(phase: Phase, runtime: str) -> tuple[dict[str, float], float]:
    """The four spans of a round trip, median microseconds, and their sum
    as a share of the measured latency (they share stamps end to end, so
    anything but 1.0 means stamps went missing)."""
    arrive = phase.harness_stamps["arrive"]
    reply = phase.harness_stamps["reply"]
    admit, forward, ws, take, whole = [], [], [], [], []
    for sent_id, t_post, t_admit, t_taken in phase.loadgen_stamps:
        whole.append(t_taken - t_post)
        if sent_id in arrive and sent_id in reply:
            admit.append(t_admit - t_post)
            forward.append(arrive[sent_id] - t_admit)
            ws.append(reply[sent_id] - arrive[sent_id])
            take.append(t_taken - reply[sent_id])
    spans = {
        ("rt" if runtime == "threaded" else "aio") + ".admit_us": _median_us(admit),
        "core.forward_us": _median_us(forward),
        "harness.ws_us": _median_us(ws),
        "msgbox.reply_to_take_us": _median_us(take),
    }
    covered = sum(map(sum, (admit, forward, ws, take)))
    return spans, (covered / sum(whole) if whole else 0.0)


def bulk_spans(phase: Phase) -> dict[str, float]:
    """Per message of a cycle: admit is first POST byte -> last 202 over
    the 64, drain is last 202 -> last arrival over the 64, and forward is
    the last message's own 202 -> arrival."""
    arrive = phase.harness_stamps["arrive"]
    admit, drain, forward = [], [], []
    for ids, t_post, t_admitted, t_last in phase.loadgen_stamps:
        admit.append((t_admitted - t_post) / BULK_CYCLE)
        drain.append((t_last - t_admitted) / BULK_CYCLE)
        if ids[-1] in arrive:
            forward.append(arrive[ids[-1]] - t_admitted)
    return {
        "rt.admit_us": _median_us(admit),
        "core.drain_us": _median_us(drain),
        "core.forward_us": _median_us(forward),
    }


def rpc_probes(runtime: str, seed: int) -> dict[str, float]:
    """An idle ``take(wait=0)`` round trip, and the RPC-Dispatcher's own
    cost: ``/rpc/echo-rpc`` through the system minus the direct call."""
    with World(runtime, seed) as world:
        wsd = world.start_wsd()
        http = new_client()
        try:
            mailbox = MsgBoxClient(http, f"{wsd.base}/mailbox")
            mailbox.create()
            request = make_echo_request()
            take, via, direct = [], [], []
            with Bracket() as bracket:
                for _ in range(RPC_PROBES):
                    t0 = time.perf_counter()
                    mailbox.take(max_messages=1, wait=0.0)
                    t1 = time.perf_counter()
                    http.call_soap(f"{wsd.base}/rpc/echo-rpc", request)
                    t2 = time.perf_counter()
                    http.call_soap(f"{world.ws.base}/echo-rpc", request)
                    t3 = time.perf_counter()
                    take.append(t1 - t0)
                    via.append(t2 - t1)
                    direct.append(t3 - t2)
        finally:
            http.close()
    return at_reference({
        "msgbox.take_rpc_us": _median_us(take),
        "core.rpc_forward_us": _median_us(via) - _median_us(direct),
    }, bracket.cal_us)


# -- counters and the process -------------------------------------------------------------

def counter_layers(phase: Phase, runtime: str) -> dict[str, float]:
    """Ratios from the deltas of the system's own counters, what the
    kernel counted for its pid, and what the generator burnt, over one
    phase."""
    counted = phase.counters
    assign_calibration(phase.windows)
    msgs = sum(w.msgs for w in phase.windows)
    client = "rt_client" if runtime == "threaded" else "aio_client"
    delivered = prom.total(counted, "msgd_delivered_total")
    # a delivery is one pipelined burst or one single exchange
    deliveries = prom.total(counted, f"{client}_pipeline_bursts_total") + prom.total(
        counted, f"{client}_request_seconds_count"
    )
    out = {
        "soap.fastpath_share": prom.share(counted, "soap_fastpath_total", outcome="fast"),
        "core.batch_mean": delivered / deliveries if deliveries else 0.0,
        "rt.conn_reuse_share": prom.share(
            counted, f"{client}_conn_reuse_total", outcome="reused"
        ),
        "core.registry_cache_hit_share": prom.share(
            counted, "registry_cache_total", outcome="hit"
        ),
        "core.failed_total": sum(
            prom.total(counted, name)
            for name in (
                "dispatcher_shed_total", "dispatcher_deadletter_total", "msgd_dropped_total"
            )
        ),
        "wsd.ctx_switches_per_msg": phase.ctx_switches / msgs if msgs else 0.0,
        "wsd.threads": float(phase.threads),
        "loadgen.cpu_ms_per_msg": median_over(
            phase.windows,
            lambda w: time_at_reference(1e3 * w.loadgen_cpu_s / w.msgs, w.cal_us),
        ),
    }
    for stage in ("admit", "queue_accept", "queue_destination", "deliver"):
        seconds = prom.total(counted, "msgd_stage_seconds_sum", stage=stage)
        count = prom.total(counted, "msgd_stage_seconds_count", stage=stage)
        out[f"core.stage_{stage}_us"] = seconds / count * 1e6 if count else 0.0
    return out


def wsd_pycalls(name: str, seed: int) -> float:
    """Python-level calls the system makes per message, counted by a
    ``sys.setprofile`` hook in a system started for this alone (the hook
    slows it several-fold, so nothing else is read from this pass).  A
    fixed number of messages, so the count does not depend on the clock."""
    outcome = Outcome()
    with World(RUNTIME_OF[name], seed) as world:
        wsd = world.start_wsd(count_calls=True)
        control = new_client(response_timeout=60.0)

        def counted(unit, units: int) -> float:
            unit()  # first-use paths: connections, caches, lazy imports
            before = get_json(control, f"{wsd.base}/bench/pycalls")["calls"]
            done = sum(unit() is not None for _ in range(units))
            calls = get_json(control, f"{wsd.base}/bench/pycalls")["calls"] - before
            return calls / done if done else 0.0

        try:
            if name == "bulk_mixed":
                with bulk_sender(world, seed, outcome) as (sender, _phase):
                    return counted(sender.cycle, PYCALLS_BULK_CYCLES) / BULK_CYCLE
            with fig6_callers(world, seed, outcome) as (clients, _at, _stamped):
                return counted(clients[0].round_trip, PYCALLS_FIG6_TRIPS)
        finally:
            control.close()


def own_pycalls(fn) -> int:
    """Python-level calls ``fn()`` makes in this thread."""
    count = [0]

    def hook(frame, event, arg):
        if event == "call":
            count[0] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count[0]


# -- probes --------------------------------------------------------------------------------

def probe(name: str, seed: int) -> dict[str, float]:
    """Two seconds of ``name``'s stamped windows against a fresh system:
    its spans and its counter ratios, for a traced run of another
    workload to fill its gaps from."""
    outcome = Outcome()
    runtime = RUNTIME_OF[name]
    with World(runtime, seed) as world:
        world.start_wsd()
        if name == "bulk_mixed":
            with bulk_sender(world, seed, outcome) as (sender, phase):
                sender.cycle()
                measured = phase(PROBE_S, stamped=True)
            spans = bulk_spans(measured)
        else:
            with fig6_callers(world, seed, outcome) as (clients, _at, stamped_phase):
                for _ in range(PROBE_WARMUP):
                    clients[0].round_trip()
                measured = stamped_phase(PROBE_S)
            spans, _ = fig6_spans(measured, runtime)
    if outcome.failed:
        raise RuntimeError(f"probe of {name} failed: {outcome.errors[:3]}")
    return at_reference({**counter_layers(measured, runtime), **spans}, phase_cal(measured))


def fill_from_probes(layers: dict[str, float], name: str, seed: int) -> None:
    """Fill the layer metrics ``name`` does not have on its own path from
    probes of the real workloads that do; what ``name`` measured itself
    is never overwritten."""
    for other in ("fig6_rt", "bulk_mixed", "fig6_aio"):
        if other != name:
            for key, value in probe(other, seed).items():
                layers.setdefault(key, value)


# -- the budget ----------------------------------------------------------------------------

#: unit-cost calls the system makes per message on each workload's path
#: (the README derives every count)
CALLS_PER_MSG = {
    "fig6": {
        "http.parse_request_us": 4.0, "http.serialize_request_us": 2.0,
        "xmlmini.scan_us": 4.0, "soap.lazy_splice_us": 2.0, "wsa.rewrite_us": 2.0,
        "core.registry_lookup_us": 1.0, "msgbox.deposit_us": 1.0, "msgbox.take_us": 1.0,
    },
    "bulk_mixed": {
        "http.parse_request_us": 1.0, "http.serialize_request_us": 1.0,
        "xmlmini.scan_us": 1.0, "wsa.rewrite_us": 1.0, "core.registry_lookup_us": 1.0,
        "soap.lazy_splice_us": 1.0 - 1.0 / BULK_SLOW_ONE_IN,
        "soap.dom_roundtrip_us": 1.0 / BULK_SLOW_ONE_IN,
    },
    "sim_fig6": {
        "http.parse_request_us": 2.0, "http.serialize_request_us": 2.0,
        "xmlmini.scan_us": 1.0, "xmlmini.parse_us": 1.0, "xmlmini.serialize_us": 1.0,
        "soap.lazy_splice_us": 1.0, "wsa.rewrite_us": 1.0, "core.registry_lookup_us": 1.0,
    },
}


def budget(name: str, layers: dict[str, float], cpu_ms_per_msg: float) -> tuple[str, float]:
    """The budget table of one workload and the share of its CPU per
    message that sum of (unit cost x calls per message) accounts for."""
    calls = CALLS_PER_MSG["fig6" if name.startswith("fig6_") else name]
    whole_us = cpu_ms_per_msg * 1e3
    lines = [f"budget {name}: cpu_ms_per_msg {cpu_ms_per_msg:.4f} ms = {whole_us:.1f} us"]
    attributed = 0.0
    for layer, count in calls.items():
        cost = layers[layer] * count
        attributed += cost
        lines.append(
            f"  {layer:<28s} {layers[layer]:10.2f} us x {count:5.3f} = {cost:9.2f} us "
            f"({cost / whole_us:6.1%})"
        )
    share = attributed / whole_us
    lines.append(f"  {'attributed':<28s} {attributed:34.2f} us ({share:6.1%})")
    lines.append(f"  {'unattributed':<28s} {whole_us - attributed:34.2f} us ({1 - share:6.1%})")
    return "\n".join(lines), share


# -- the traced pass ---------------------------------------------------------------------------

def _bookkeeping(outcome: Outcome, rate_kind: str, latency_kind: str) -> dict[str, float]:
    """Machine, generator and raw numbers of the plain phase, and what the
    stamps cost (stamped against plain rate, both at reference speed)."""
    plain = outcome.plain.windows
    at_reference = end_to_end(plain, rate_kind, latency_kind)
    rate = [w for w in plain if w.kind == rate_kind]
    raw_latencies = [ms for w in plain if w.kind == latency_kind for ms in w.latencies_ms]
    cals = [w.cal_us for w in plain]
    overhead = 0.0
    if outcome.stamped is not None:
        stamped = end_to_end(outcome.stamped.windows, rate_kind, latency_kind)
        overhead = 1.0 - stamped["msgs_per_s"] / at_reference["msgs_per_s"]
    return {
        "machine.cal_us": statistics.median(cals),
        "machine.cal_spread": quartile_spread(cals) if len(cals) > 1 else 0.0,
        "trace.overhead_share": overhead,
        "raw.msgs_per_s": median_over(rate, lambda w: w.msgs / w.elapsed_s),
        "raw.latency_p50_ms": percentile(raw_latencies, 50.0),
        "raw.latency_p90_ms": percentile(raw_latencies, 90.0),
        "raw.latency_p99_ms": percentile(raw_latencies, 99.0),
        "cpu_ms_per_msg": at_reference["cpu_ms_per_msg"],
    }


def _sample_wire(seed: int, to: str, target_bytes: int = PAPER_XML_BYTES) -> bytes:
    """One message of the workload, for the unit costs to run on."""
    return EchoTemplate(to, target_bytes=target_bytes).render(
        message_id(seed, 0, 1), "0" * 12
    )


def traced(name: str, seed: int, rate_kind: str, latency_kind: str) -> tuple[dict, str, Outcome]:
    """Run ``name``'s traced pass: every per-layer metric, the report
    text (budget table included), and the run's outcome."""
    span_sum = None
    if name == "sim_fig6":
        outcome = run_sim(seed, PLAIN_S + STAMPED_S)
        wire = _sample_wire(seed, "urn:wsd:echo")
        msgs = outcome.plain.windows[0].msgs
        layers = {"wsd.pycalls_per_msg": own_pycalls(sim_repetition) / msgs}
        probe_runtime = "threaded"
    else:
        runtime = probe_runtime = RUNTIME_OF[name]
        if name == "bulk_mixed":
            outcome = run_bulk(seed, PLAIN_S, STAMPED_S)
            spans = bulk_spans(outcome.stamped)
            wire = _sample_wire(seed, "urn:wsd:sink", BULK_BODY_BYTES)
        else:
            outcome = run_fig6(runtime, seed, PLAIN_S, STAMPED_S)
            spans, span_sum = fig6_spans(outcome.stamped, runtime)
            wire = _sample_wire(seed, "urn:wsd:echo-msg")
        layers = at_reference(
            {**counter_layers(outcome.stamped, runtime), **spans}, phase_cal(outcome.stamped)
        )
        layers["wsd.pycalls_per_msg"] = wsd_pycalls(name, seed)
    with temp_dir() as scratch:
        layers.update(unit_costs(wire, scratch))
    layers.update(rpc_probes(probe_runtime, seed))
    fill_from_probes(layers, name, seed)
    books = _bookkeeping(outcome, rate_kind, latency_kind)
    cpu_ms_per_msg = books.pop("cpu_ms_per_msg")
    layers.update(books)
    table, share = budget(name, layers, cpu_ms_per_msg)
    layers["budget.attributed_share"] = share
    layers["budget.unattributed_share"] = 1.0 - share
    if span_sum is not None:
        table += f"\nspans of a round trip sum to {span_sum:.4f} of its measured latency"
    return layers, table, outcome

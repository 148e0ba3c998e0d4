"""The four workloads: what each sends, how it is windowed, and the
checks that decide whether an operation counted.

All four are closed loops — a firewalled caller waits for its reply
before it sends again — and each measured window is bracketed by two
runs of the calibration kernel (see ``calibrate.py``).
"""

from __future__ import annotations

import copy
import gc
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import prom
import procstat
from calibrate import Bracket, calibrate
from estimator import Window, time_at_reference
from repro.errors import ReproError
from repro.http import Headers, HttpRequest
from repro.msgbox import MsgBoxClient
from repro.soap import Envelope, parse_rpc_request, parse_rpc_response
from repro.workload.echo import PAPER_XML_BYTES, make_echo_message
from repro.wsa import AddressingHeaders, EndpointReference
from world import HarnessError, World, child_env, get, get_json, new_client

COLD_STARTS = 5
WARMUP_S = 2.0
WINDOW_S = 0.5
TAKE_WAIT_S = 5.0
SINK_WAIT_S = 10.0

BULK_BODY_BYTES = 64 * 1024
BULK_CYCLE = 64
BULK_BURST = 8
BULK_CYCLES_PER_WINDOW = 6
#: one message in this many is a legal envelope the scanner declines
BULK_SLOW_ONE_IN = 8

SIM_CLIENTS = 20
SIM_DURATION = 2.0

_ID_SLOT = "uuid:e2e-0000000000000000"
_TOKEN_SLOT = b"x" * 12


@dataclass
class Phase:
    """A stretch of windows, with what the system exported and what the
    kernel counted for it over the same stretch."""

    windows: list[Window]
    #: deltas of the system's ``GET /metrics``
    counters: prom.Scrape = field(default_factory=dict)
    ctx_switches: int = 0
    threads: int = 0
    #: span stamps of a stamped phase: the harness's, and the loadgen's
    harness_stamps: dict = field(default_factory=dict)
    loadgen_stamps: list = field(default_factory=list)


@dataclass
class Outcome:
    """What a run produced, before it is summarised into metrics."""

    #: the measured windows; end-to-end numbers come from here only
    plain: Phase | None = None
    #: the same workload with the harness's span stamps on (traced pass)
    stamped: Phase | None = None
    setup_s: list[float] = field(default_factory=list)
    rss_peak_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def fail(self, count: int, why: str) -> None:
        """Count ``count`` failed operations (callers may be threads)."""
        with self._lock:
            self.failed += count
            if len(self.errors) < 10:
                self.errors.append(why)


# -- messages and their checks ------------------------------------------------

class EchoTemplate:
    """One echo message serialised once, with fixed-width slots for the
    MessageID and a token at the head of the echoed text, so a send costs
    the generator a join and the reply can be checked against the send."""

    def __init__(
        self,
        to: str,
        reply_to: EndpointReference | None = None,
        target_bytes: int = PAPER_XML_BYTES,
    ) -> None:
        envelope = make_echo_message(
            to=to, message_id=_ID_SLOT, reply_to=reply_to, target_bytes=target_bytes
        )
        text = parse_rpc_request(envelope).param("text") or ""
        if not text.startswith(_TOKEN_SLOT.decode()):
            raise HarnessError("echo payload too short to carry a token")
        self._text_rest = text[len(_TOKEN_SLOT):]
        head, tail = envelope.to_bytes().split(_ID_SLOT.encode())
        cut = tail.index(_TOKEN_SLOT)
        self._parts = (head, tail[:cut], tail[cut + len(_TOKEN_SLOT):])
        self.content_type = envelope.version.content_type

    def render(self, message_id: str, token: str) -> bytes:
        head, middle, tail = self._parts
        return b"".join((head, message_id.encode(), middle, token.encode(), tail))

    def request(self, message_id: str, token: str) -> HttpRequest:
        """The POST that carries the rendered message."""
        headers = Headers()
        headers.set("Content-Type", self.content_type)
        return HttpRequest("POST", "/", headers=headers, body=self.render(message_id, token))

    def declined_by_scanner(self) -> "EchoTemplate":
        """The same message declaring a non-UTF-8 encoding: legal XML the
        zero-copy scanner declines, so it takes the DOM slow path."""
        head, middle, tail = self._parts
        slow_head = head.replace(b'encoding="UTF-8"', b'encoding="ISO-8859-1"', 1)
        if slow_head == head:
            raise HarnessError("no XML declaration to re-label")
        twin = copy.copy(self)
        twin._parts = (slow_head, middle, tail)
        return twin

    def expected_text(self, token: str) -> str:
        return token + self._text_rest


def message_id(seed: int, stream: int, n: int) -> str:
    """A MessageID of the slot's width, unique per (seed, stream, n)."""
    return f"uuid:e2e-{seed & 0xFFFF:04x}{stream & 0xF:01x}{n:011x}"


def reply_error(reply: Envelope, sent_id: str, sent_text: str) -> str | None:
    """Why ``reply`` does not answer the message sent, or None if it does."""
    relates = AddressingHeaders.from_envelope(reply).relates_to
    if relates != [sent_id]:
        return f"RelatesTo {relates} is not {sent_id}"
    if parse_rpc_response(reply).result("return") != sent_text:
        return f"echoed text of {sent_id} differs from the text sent"
    return None


def sink_error(count: int, sent: int) -> str | None:
    """Why the sink's count is wrong, or None."""
    return None if count == sent else f"sink holds {count} messages, {sent} were sent"


def slow_share_error(counted: prom.Scrape, sent: int) -> str | None:
    """Why the scraped parse outcomes are wrong: exactly one in
    :data:`BULK_SLOW_ONE_IN` of the messages sent must have been declined
    for its encoding, and every other one parsed fast."""
    declined = prom.total(counted, "soap_fastpath_total", outcome="encoding")
    parsed = prom.total(counted, "soap_fastpath_total")
    if declined * BULK_SLOW_ONE_IN != sent or parsed != sent:
        return f"{declined:.0f} of {parsed:.0f} parses took the slow path, sent {sent}"
    return None


class EchoClient:
    """One firewalled caller: posts a one-way echo whose ReplyTo is its own
    mailbox, gets 202, and long-polls the mailbox for the reply."""

    def __init__(self, wsd_base: str, seed: int, stream: int, outcome: Outcome) -> None:
        self.http = new_client()
        self.mailbox = MsgBoxClient(self.http, f"{wsd_base}/mailbox")
        self.mailbox.create()
        self.template = EchoTemplate("urn:wsd:echo-msg", self.mailbox.epr())
        self.url = f"{wsd_base}/msg/echo-msg"
        self.seed, self.stream = seed, stream
        self.rng = random.Random(seed * 16 + stream)
        self.outcome = outcome
        self.sent = 0
        #: (message id, POST start, 202 read, reply taken) when tracing
        self.stamps: list[tuple[str, float, float, float]] | None = None

    def close(self) -> None:
        self.http.close()

    def round_trip(self) -> float | None:
        """One verified round trip; its latency in ms, None if it failed."""
        self.sent += 1
        sent_id = message_id(self.seed, self.stream, self.sent)
        token = f"{self.rng.getrandbits(48):012x}"
        request = self.template.request(sent_id, token)
        try:
            t_post = time.monotonic()
            status = self.http.request(self.url, request).status
            t_admit = time.monotonic()
            if status != 202:
                return self._fail(f"admit of {sent_id} answered {status}")
            replies = self.mailbox.take(max_messages=1, wait=TAKE_WAIT_S)
            t_taken = time.monotonic()
            if not replies:
                return self._fail(f"no reply to {sent_id} within {TAKE_WAIT_S:.0f}s")
            why = reply_error(replies[0], sent_id, self.template.expected_text(token))
        except (ReproError, OSError) as exc:
            return self._fail(f"{sent_id}: {exc!r}")
        if why is not None:
            return self._fail(why)
        if self.stamps is not None:
            self.stamps.append((sent_id, t_post, t_admit, t_taken))
        return (t_taken - t_post) * 1e3

    def _fail(self, why: str) -> None:
        self.outcome.fail(1, why)
        return None

    def run_until(self, deadline: float, latencies: list[float]) -> None:
        while time.monotonic() < deadline:
            latency = self.round_trip()
            if latency is not None:
                latencies.append(latency)


def cold_starts(world: World, seed: int, outcome: Outcome) -> None:
    """Start the system :data:`COLD_STARTS` times: spawn -> listening ->
    mailbox created -> first verified round trip.  The last one stays up
    and serves the measurement."""
    for attempt in range(COLD_STARTS):
        world.stop_wsd()
        with Bracket() as bracket:
            t0 = time.monotonic()
            client = EchoClient(world.start_wsd().base, seed, 15, outcome)
            try:
                outcome.attempted += 1
                if client.round_trip() is None:
                    raise HarnessError(f"cold start {attempt} failed: {outcome.errors[-1:]}")
                elapsed = time.monotonic() - t0
            finally:
                client.close()
        outcome.setup_s.append(time_at_reference(elapsed, bracket.cal_us))


# -- windows and phases ----------------------------------------------------------

def measure_window(kind: str, cal_before: float, sut_cpu, body) -> Window:
    """Run ``body(window)`` between two readings of ``sut_cpu()`` (the
    system's CPU seconds so far) and close the bracket with a calibration."""
    window = Window(kind, cal_before_us=cal_before)
    gc.collect()  # garbage of the previous window is not this window's cost
    cpu0, own0, t0 = sut_cpu(), time.process_time(), time.monotonic()
    body(window)
    window.elapsed_s = time.monotonic() - t0
    window.loadgen_cpu_s = time.process_time() - own0
    window.sut_cpu_s = sut_cpu() - cpu0
    window.cal_after_us = calibrate()
    return window


def measure_windows(seconds: float, sut_cpu, window_at, period: int = 1) -> list[Window]:
    """Bracketed windows for ``seconds``, ended on a multiple of
    ``period``; ``window_at(index)`` names a window's kind and body."""
    windows: list[Window] = []
    t_end = time.monotonic() + seconds
    cal = calibrate()
    while time.monotonic() < t_end or len(windows) % period:
        kind, body = window_at(len(windows))
        windows.append(measure_window(kind, cal, sut_cpu, body))
        cal = windows[-1].cal_after_us
    return windows


def measure_phase(
    world: World, seconds: float, window_at, period: int = 1, stamped: bool = False
) -> Phase:
    """Windows against a real world, with what the system exported and
    what the kernel counted for it around them; ``stamped`` turns the
    harness's span stamps on for the phase and collects them after."""
    wsd = world.wsd
    control = new_client()

    def scrape() -> prom.Scrape:
        return prom.flatten(get(control, f"{wsd.base}/metrics").decode())

    try:
        if stamped:
            get_json(control, f"{world.ws.base}/stamps?enable=1")
        before, ctx0 = scrape(), procstat.ctx_switches(wsd.pid)
        phase = Phase(
            measure_windows(seconds, lambda: procstat.cpu_seconds(wsd.pid), window_at, period)
        )
        phase.ctx_switches = procstat.ctx_switches(wsd.pid) - ctx0
        phase.threads = procstat.thread_count(wsd.pid)
        phase.counters = prom.delta(scrape(), before)
        if stamped:
            phase.harness_stamps = get_json(control, f"{world.ws.base}/stamps?enable=0")
    finally:
        control.close()
    return phase


# -- fig6_rt / fig6_aio --------------------------------------------------------

@contextmanager
def fig6_callers(world: World, seed: int, outcome: Outcome):
    """Two callers against ``world`` and the window schedule they follow:
    windows of :data:`WINDOW_S` alternating one caller (``c1``, the
    unloaded round trip) and two (``c2``, capacity under concurrency)."""
    clients = [EchoClient(world.wsd.base, seed, i, outcome) for i in range(2)]

    def window_at(index: int):
        callers = clients[: 1 + index % 2]

        def body(window: Window) -> None:
            _drive(callers, time.monotonic() + WINDOW_S, window.latencies_ms)
            window.msgs = len(window.latencies_ms)

        return f"c{len(callers)}", body

    def stamped_phase(seconds: float) -> Phase:
        for client in clients:
            client.stamps = []
        phase = measure_phase(world, seconds, window_at, period=2, stamped=True)
        phase.loadgen_stamps = [s for c in clients for s in c.stamps]
        return phase

    try:
        yield clients, window_at, stamped_phase
    finally:
        outcome.attempted += sum(c.sent for c in clients)
        for client in clients:
            client.close()


def run_fig6(
    runtime: str, seed: int, seconds: float, stamped_seconds: float = 0.0
) -> Outcome:
    outcome = Outcome()
    with World(runtime, seed) as world:
        cold_starts(world, seed, outcome)
        with fig6_callers(world, seed, outcome) as (clients, window_at, stamped_phase):
            _drive(clients, time.monotonic() + WARMUP_S, [])
            outcome.plain = measure_phase(world, seconds, window_at, period=2)
            if stamped_seconds:
                outcome.stamped = stamped_phase(stamped_seconds)
            outcome.rss_peak_mb = procstat.rss_peak_mb(world.wsd.pid)
    return outcome


def _drive(clients: list[EchoClient], deadline: float, latencies: list[float]) -> None:
    """Every client loops round trips until ``deadline``; returns when all
    have finished the one in flight (list.append is atomic)."""
    threads = [
        threading.Thread(target=c.run_until, args=(deadline, latencies), daemon=True)
        for c in clients[1:]
    ]
    for thread in threads:
        thread.start()
    clients[0].run_until(deadline, latencies)
    for thread in threads:
        thread.join(TAKE_WAIT_S + 15.0)
        if thread.is_alive():
            raise HarnessError("a client thread outlived every deadline it has")


# -- bulk_mixed ------------------------------------------------------------------

class BulkSender:
    """One sender thread in throughput mode: cycles of :data:`BULK_CYCLE`
    one-way 64 KiB messages to the sink, as pipelined bursts of
    :data:`BULK_BURST`, then a wait for the last one to arrive."""

    def __init__(self, world: World, seed: int, outcome: Outcome) -> None:
        self.http = new_client()
        self.control = new_client(response_timeout=SINK_WAIT_S + 5.0)
        self.url = f"{world.wsd.base}/msg/sink"
        self.sink_url = f"{world.ws.base}/sink/wait"
        self.fast = EchoTemplate("urn:wsd:sink", target_bytes=BULK_BODY_BYTES)
        self.slow = self.fast.declined_by_scanner()
        self.seed = seed
        self.rng = random.Random(seed)
        self.outcome = outcome
        self.sent = 0
        self.arrived = get_json(self.control, self.sink_url)["count"]
        #: per cycle (message ids, POST start, last 202 read, last arrival)
        #: when tracing
        self.stamps: list[tuple[list[str], float, float, float]] | None = None

    def close(self) -> None:
        self.http.close()
        self.control.close()

    def _requests(self) -> tuple[list[list[HttpRequest]], list[str]]:
        """The next cycle's bursts, its slow positions drawn from the seed."""
        slow_at = set(self.rng.sample(range(BULK_CYCLE), BULK_CYCLE // BULK_SLOW_ONE_IN))
        bursts, ids = [], []
        for position in range(BULK_CYCLE):
            self.sent += 1
            ids.append(message_id(self.seed, 14, self.sent))
            template = self.slow if position in slow_at else self.fast
            request = template.request(ids[-1], f"{self.rng.getrandbits(48):012x}")
            self.http.prepare(self.url, request)
            if position % BULK_BURST == 0:
                bursts.append([])
            bursts[-1].append(request)
        return bursts, ids

    def cycle(self) -> float | None:
        """One cycle; first POST byte -> last sink arrival in ms, or None
        when any of its messages was refused or went missing."""
        bursts, ids = self._requests()
        refused = 0
        try:
            t_post = time.monotonic()
            with self.http.lease(self.url) as lease:
                for burst in bursts:
                    answers = lease.pipeline(burst)
                    refused += sum(getattr(a, "status", None) != 202 for a in answers)
            t_admitted = time.monotonic()
            expected = self.arrived + BULK_CYCLE - refused
            sink = get_json(
                self.control, f"{self.sink_url}?n={expected}&timeout={SINK_WAIT_S}"
            )
        except (ReproError, OSError) as exc:
            self.outcome.fail(BULK_CYCLE, f"cycle ending at {self.sent}: {exc!r}")
            self.arrived = get_json(self.control, self.sink_url)["count"]
            return None
        why = sink_error(sink["count"], expected)
        self.arrived = sink["count"]
        if refused or why is not None:
            self.outcome.fail(
                refused + abs(sink["count"] - expected), why or f"{refused} not admitted"
            )
            return None
        if self.stamps is not None:
            self.stamps.append((ids, t_post, t_admitted, sink["last_arrival"]))
        return (sink["last_arrival"] - t_post) * 1e3


@contextmanager
def bulk_sender(world: World, seed: int, outcome: Outcome):
    """The sender against ``world`` and its window schedule: one window =
    :data:`BULK_CYCLES_PER_WINDOW` cycles.  Every phase ends with the
    check that exactly one message in :data:`BULK_SLOW_ONE_IN` took the
    slow path."""
    sender = BulkSender(world, seed, outcome)

    def window_at(index: int):
        def body(window: Window) -> None:
            for _ in range(BULK_CYCLES_PER_WINDOW):
                latency = sender.cycle()
                if latency is not None:
                    window.latencies_ms.append(latency)
            window.msgs = len(window.latencies_ms) * BULK_CYCLE

        return "cycles", body

    def phase(seconds: float, stamped: bool = False) -> Phase:
        sent_before = sender.sent
        sender.stamps = [] if stamped else None
        measured = measure_phase(world, seconds, window_at, stamped=stamped)
        measured.loadgen_stamps = sender.stamps or []
        why = slow_share_error(measured.counters, sender.sent - sent_before)
        if why is not None:
            outcome.fail(1, why)
        return measured

    try:
        yield sender, phase
    finally:
        outcome.attempted += sender.sent
        sender.close()


def run_bulk(seed: int, seconds: float, stamped_seconds: float = 0.0) -> Outcome:
    outcome = Outcome()
    with World("threaded", seed) as world:
        cold_starts(world, seed, outcome)
        with bulk_sender(world, seed, outcome) as (sender, phase):
            warm_until = time.monotonic() + WARMUP_S
            while time.monotonic() < warm_until:
                sender.cycle()
            outcome.plain = phase(seconds)
            if stamped_seconds:
                outcome.stamped = phase(stamped_seconds, stamped=True)
            outcome.rss_peak_mb = procstat.rss_peak_mb(world.wsd.pid)
    return outcome


# -- sim_fig6 ---------------------------------------------------------------------

_SIM_COLD_START = """
from repro.experiments import fig6
from repro.simnet.kernel import Simulator
sim = Simulator()
sim.process(iter([sim.timeout(1.0)]))
sim.run()
assert sim.events_processed >= 1
print("ready", flush=True)
"""


def sim_cold_starts(outcome: Outcome) -> None:
    """``import`` -> first ``Simulator`` event, in a fresh interpreter."""
    for _ in range(COLD_STARTS):
        with Bracket() as bracket:
            t0 = time.monotonic()
            done = subprocess.run(
                [sys.executable, "-c", _SIM_COLD_START], env=child_env(),
                stdin=subprocess.DEVNULL, capture_output=True, timeout=60.0,
            )
            elapsed = time.monotonic() - t0
        if done.returncode != 0 or b"ready" not in done.stdout:
            raise HarnessError(f"simulator cold start failed: {done.stderr[-300:]!r}")
        outcome.setup_s.append(time_at_reference(elapsed, bracket.cal_us))


def sim_repetition() -> tuple[int, ...]:
    """One Figure 6 run on the simulator; messages handed to the entry
    point per series (mode x client count)."""
    from repro.experiments import fig6

    report = fig6.run(client_counts=[SIM_CLIENTS], duration=SIM_DURATION)
    return tuple(r.transmitted for series in report.series for r in series.results)


def run_sim(seed: int, seconds: float) -> Outcome:
    """One window = one repetition.  The experiment seeds itself, so the
    inputs are the same for every ``seed``."""
    outcome = Outcome()
    sim_cold_starts(outcome)
    reference = sim_repetition()  # warm-up, and the counts every repetition must match
    def body(window: Window) -> None:
        t0 = time.monotonic()
        counts = sim_repetition()
        window.latencies_ms.append((time.monotonic() - t0) * 1e3)
        window.msgs = sum(counts)
        outcome.attempted += window.msgs
        if counts != reference:
            outcome.fail(window.msgs, f"transmitted {counts}, first repetition {reference}")

    # the driver is the system here, so its own CPU clock is the system's
    outcome.plain = Phase(
        measure_windows(seconds, time.process_time, lambda index: ("rep", body))
    )
    outcome.rss_peak_mb = procstat.rss_peak_mb(os.getpid())
    return outcome

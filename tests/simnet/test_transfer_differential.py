"""``Network.transfer`` (a chain of kernel callbacks) against the generator
process it replaced, kept here as the oracle.

Both sides run the same drawn world — link rates, sizes, loss with RTO
retries and loss-rate changes, jitter, ``LinkDown`` windows (some applied at the very instant a
transfer is called) and ``extra_latency`` changes (at the calling instant
and mid-flight) — and must agree exactly on every completion time, every
pipe counter, every link's ``dropped_transfers`` / ``stalled_transfers``
and the state of the loss RNG.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.kernel import Simulator
from repro.simnet.topology import AccessLink, Network


def reference_transfer(net, src, dst, nbytes):
    """The generator-process transfer, as it was before the callback chain."""
    sim = net.sim
    done = sim.event()

    if src is dst:
        return sim.timeout(0.0001, value=nbytes)

    def _links_up():
        stalled = False
        while True:
            until = max(src.link.down_until, dst.link.down_until)
            if until <= sim.now:
                return
            if not stalled:
                stalled = True
                for link in (src.link, dst.link):
                    if link.down_until > sim.now:
                        link.stalled_transfers += 1
            yield sim.timeout(until - sim.now)

    def _run():
        yield from _links_up()
        yield sim.timeout(src.link.up.reserve(nbytes))
        loss = max(src.link.loss, dst.link.loss)
        while loss > 0.0 and net._loss_rng.random() < loss:
            lossy = src.link if src.link.loss >= dst.link.loss else dst.link
            lossy.dropped_transfers += 1
            yield sim.timeout(net.rto)
            yield from _links_up()
            yield sim.timeout(src.link.up.reserve(nbytes))
        delay = net.propagation(src, dst)
        delay += src.link.extra_latency + dst.link.extra_latency
        spread = src.link.jitter + dst.link.jitter
        if spread > 0.0:
            delay += net._loss_rng.random() * spread
        yield sim.timeout(delay)
        yield sim.timeout(dst.link.down.reserve(nbytes))
        done.succeed(nbytes)

    sim.process(_run(), name=f"xfer-{src.name}->{dst.name}")
    return done


# coarse instants, so transfers and faults often share one
_instant = st.integers(0, 6).map(lambda n: n * 0.5)

_link = st.fixed_dictionaries({
    "down_kbps": st.sampled_from([8.0, 64.0, 288.0, 1300.0]),
    "up_kbps": st.sampled_from([8.0, 64.0, 288.0, 1300.0]),
    "latency": st.sampled_from([0.001, 0.01, 0.05, 0.25]),
    "loss": st.sampled_from([0.0, 0.0, 0.2, 0.6]),
    "jitter": st.sampled_from([0.0, 0.0, 0.1]),
})

_action = st.one_of(
    st.tuples(
        st.just("transfer"), _instant, st.integers(0, 2), st.integers(0, 2),
        st.integers(0, 4000),
    ),
    st.tuples(
        st.just("down"), _instant, st.integers(0, 2),
        st.sampled_from([0.0, 0.25, 0.5, 2.0]),
    ),
    st.tuples(
        st.just("latency"), _instant, st.integers(0, 2),
        st.sampled_from([0.05, 0.3]), st.sampled_from([0.0, 0.25, 1.0]),
    ),
    st.tuples(
        st.just("loss"), _instant, st.integers(0, 2),
        st.sampled_from([0.0, 0.5, 0.9]), st.sampled_from([0.25, 1.0]),
    ),
)

_world = st.fixed_dictionaries({
    "links": st.lists(_link, min_size=3, max_size=3),
    "seed": st.integers(0, 2**16),
    "rto": st.sampled_from([0.25, 1.0]),
    "actions": st.lists(_action, min_size=1, max_size=16),
})


def _play(world, transfer):
    """Run ``world`` with ``transfer``; everything either side can show."""
    sim = Simulator()
    net = Network(sim, loss_seed=world["seed"])
    net.rto = world["rto"]
    hosts = []
    for i, spec in enumerate(world["links"]):
        host = net.add_host(
            f"h{i}",
            AccessLink(spec["down_kbps"], spec["up_kbps"], spec["latency"], spec["loss"]),
        )
        host.link.jitter = spec["jitter"]
        hosts.append(host)
    completed: dict[int, float] = {}

    def send(index, at, src, dst, nbytes):
        yield sim.timeout(at)
        value = yield transfer(net, hosts[src], hosts[dst], nbytes)
        assert value == nbytes
        completed[index] = sim.now

    def down(at, host, duration):
        yield sim.timeout(at)
        link = hosts[host].link
        link.down_until = max(link.down_until, sim.now + duration)

    def latency(at, host, extra, duration):
        # an AddedLatency window: on at ``at``, off ``duration`` later
        link = hosts[host].link
        yield sim.timeout(at)
        link.extra_latency += extra
        yield sim.timeout(duration)
        link.extra_latency -= extra

    def loss(at, host, rate, duration):
        # a PacketLoss window: a transfer keeps the rate it first saw
        link = hosts[host].link
        yield sim.timeout(at)
        prev, link.loss = link.loss, rate
        yield sim.timeout(duration)
        link.loss = prev

    # started in drawn order: a fault drawn after a transfer at the same
    # instant lands after the call and before the links are first read
    for index, (kind, *args) in enumerate(world["actions"]):
        if kind == "transfer":
            sim.process(send(index, *args))
        else:
            sim.process({"down": down, "latency": latency, "loss": loss}[kind](*args))
    sim.run()

    links = [
        (
            h.link.up.bytes_carried, h.link.up.transfers, h.link.up._free_at,
            h.link.down.bytes_carried, h.link.down.transfers, h.link.down._free_at,
            h.link.dropped_transfers, h.link.stalled_transfers,
        )
        for h in hosts
    ]
    return completed, links, net._loss_rng.getstate()


@settings(max_examples=300, deadline=None)
@given(_world)
def test_callback_chain_matches_the_generator_process(world):
    assert _play(world, Network.transfer) == _play(world, reference_transfer)


def test_a_fault_at_the_calling_instant_is_seen():
    """The links are read one kernel step after the call, as the process's
    bootstrap read them: a ``LinkDown`` applied right after the call, at
    the same instant, stalls the transfer on both sides."""
    world = {
        "links": [
            {"down_kbps": 64.0, "up_kbps": 64.0, "latency": 0.01, "loss": 0.0,
             "jitter": 0.0},
        ] * 3,
        "seed": 1,
        "rto": 1.0,
        "actions": [("transfer", 0.5, 0, 1, 100), ("down", 0.5, 1, 2.0)],
    }
    completed, links, _ = _play(world, Network.transfer)
    assert completed[0] > 2.5
    assert links[1][-1] == 1  # stalled_transfers on the downed link
    assert _play(world, reference_transfer)[0] == completed


def test_a_retry_that_meets_a_new_outage_stalls_again():
    """Each wait for the links counts once: a transfer that stalls, is
    lost, and finds the link down again when its RTO expires is counted
    as stalled twice."""
    lossy = {"down_kbps": 64.0, "up_kbps": 64.0, "latency": 0.01, "loss": 0.9,
             "jitter": 0.0}
    clean = dict(lossy, loss=0.0)
    world = {
        "links": [lossy, clean, clean],
        "seed": 7,
        "rto": 1.0,
        "actions": [
            ("transfer", 0.0, 0, 1, 100),
            ("down", 0.0, 1, 0.5),
            ("down", 1.5, 1, 2.0),
        ],
    }
    completed, links, rng = _play(world, Network.transfer)
    assert links[0][-2] >= 1  # the lossy sender dropped at least once
    assert links[1][-1] == 2
    assert _play(world, reference_transfer) == (completed, links, rng)

"""Serial vs pipelined WsThread drain (the connection-lease fast path).

One backlog of one-way messages to a single WAN destination (≥5 ms each
way), drained by the simulated MSG-Dispatcher twice: ``batch_size=1``
(one request/response round trip per message, the pre-lease behaviour)
and ``batch_size=8`` (each batch rides one write burst on the leased
connection).  The pipelined drain pays ~1 RTT per batch instead of per
message, so the expected speedup at WAN latency is near the batch size;
the gate is a conservative 2x.
"""

from dataclasses import replace

from _perfjson import write_bench_json
from repro.core.registry import ServiceRegistry
from repro.core.sim_dispatcher import SimMsgDispatcher, SimMsgDispatcherConfig
from repro.http import HttpResponse
from repro.obs.metrics import MetricsRegistry
from repro.simnet.httpsim import SimHttpServer
from repro.simnet.kernel import Simulator
from repro.simnet.scenarios import BACKBONE_IU, add_site
from repro.simnet.topology import Network
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message


def _drain_backlog(messages: int, batch_size: int):
    """Deliver a t=0 backlog of ``messages`` one-way sends; return stats."""
    sim = Simulator()
    net = Network(sim)
    # BACKBONE_IU latency is 10 ms per access link: 20 ms one way, 40 ms
    # RTT dispatcher<->service — comfortably past the 5 ms floor where
    # pipelining matters.
    svc_host = add_site(net, replace(BACKBONE_IU, name="svc"), open_ports=(9000,))
    wsd_host = add_site(net, replace(BACKBONE_IU, name="wsd"))
    SimHttpServer(
        net, svc_host, 9000,
        lambda request: HttpResponse(status=202),
        workers=32, service_time=0.0005,
    )
    metrics = MetricsRegistry()
    registry = ServiceRegistry(metrics=metrics)
    registry.register("echo", "http://svc:9000/echo")
    config = SimMsgDispatcherConfig(
        cx_workers=4, ws_workers=2, batch_size=batch_size,
    )
    dispatcher = SimMsgDispatcher(
        net, wsd_host, registry,
        own_address="http://wsd:8000/msg", config=config, metrics=metrics,
    )
    ids = IdGenerator("pipe", seed=messages)
    for _ in range(messages):
        envelope = make_echo_message(to="urn:wsd:echo", message_id=ids.next())
        assert dispatcher._offer(
            (envelope, "/msg/echo", None, 0.0, None)
        )
    while dispatcher.stats.get("delivered", 0) < messages and sim.step():
        pass
    drained = sim.now
    delivered = dispatcher.stats.get("delivered", 0)
    return {
        "delivered": delivered,
        "sim_seconds": drained,
        "msgs_per_sec": delivered / drained if drained else 0.0,
        "bursts": dispatcher.pool.pipelined_bursts,
        "replays": dispatcher.pool.pipeline_replays,
    }


def test_pipelined_drain_speedup(benchmark, paper_scale, record_report):
    messages = 400 if paper_scale else 200

    def run():
        return {
            "serial": _drain_backlog(messages, batch_size=1),
            "pipelined": _drain_backlog(messages, batch_size=8),
        }

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    serial, piped = out["serial"], out["pipelined"]
    speedup = piped["msgs_per_sec"] / serial["msgs_per_sec"]
    rows = ["variant\tdelivered\tsim_s\tmsgs/s\tbursts\treplays"]
    for label in ("serial", "pipelined"):
        v = out[label]
        rows.append(
            f"{label}\t{v['delivered']}\t{v['sim_seconds']:.3f}\t"
            f"{v['msgs_per_sec']:.0f}\t{v['bursts']}\t{v['replays']}"
        )
    rows.append(f"speedup\t{speedup:.2f}x")
    record_report("pipeline_drain", "\n".join(rows))
    write_bench_json(
        "pipeline_drain",
        {
            "benchmark": "pipeline_drain",
            "rows": [dict(out[label], variant=label) for label in out],
            "gate": {"min_speedup": 2.0, "speedup": round(speedup, 2)},
        },
    )
    assert serial["delivered"] == messages
    assert piped["delivered"] == messages
    # the lease + burst drain must at least double drained msgs/sec
    assert speedup >= 2.0

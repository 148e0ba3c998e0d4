"""The public import surface documented in docs/api.md must exist."""

import dataclasses
import importlib
import pathlib
import re

import pytest


def test_top_level_exports():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name
    assert repro.__version__


@pytest.mark.parametrize(
    "module",
    [
        "repro.aio",
        "repro.core",
        "repro.core.sim_dispatcher",
        "repro.msgbox",
        "repro.obs",
        "repro.registry",
        "repro.reliable",
        "repro.soap",
        "repro.wsa",
        "repro.xmlmini",
        "repro.http",
        "repro.transport",
        "repro.rt",
        "repro.shard",
        "repro.simnet",
        "repro.store",
        "repro.util",
        "repro.workload",
        "repro.experiments",
    ],
)
def test_module_all_exports_resolve(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert getattr(mod, name, None) is not None, f"{module}.{name}"


def test_documented_entry_points_exist():
    """Spot-check the names docs/api.md leans on."""
    from repro.core import (
        MsgDispatcher,
        RegistryService,
        RpcDispatcher,
        ServiceRegistry,
    )
    from repro.aio import (
        AioHttpClient,
        AioHttpServer,
        AioLoopThread,
        AioMsgBoxService,
        AioMsgDispatcher,
        AioRpcDispatcher,
    )
    from repro.msgbox import MailboxStore, MsgBoxClient, MsgBoxService
    from repro.msgbox.service import make_mailbox_epr
    from repro.obs import (
        Introspection,
        MetricsRegistry,
        TraceStore,
        ensure_trace,
    )
    from repro.reliable import DuplicateFilter, ExponentialBackoff, HoldRetryStore
    from repro.simnet import Simulator, make_network
    from repro.workload import make_echo_message, make_echo_request
    from repro.wsa import make_reply_headers, rewrite_for_forwarding

    assert all(
        callable(x)
        for x in (
            make_mailbox_epr,
            make_echo_message, make_echo_request,
            make_reply_headers, rewrite_for_forwarding, make_network,
        )
    )


def _documented_fields(class_name: str) -> set[str]:
    """The parameter list docs/api.md gives for ``class_name(...)``."""
    api_md = pathlib.Path(__file__).resolve().parents[1] / "docs" / "api.md"
    match = re.search(
        rf"`{class_name}\(([^)`]+)\)`", api_md.read_text(encoding="utf-8")
    )
    assert match, f"docs/api.md has no `{class_name}(...)` signature"
    return {name.strip() for name in match.group(1).split(",")}


def test_dispatcher_configs_are_documented_and_mirror_each_other():
    """docs/api.md lists exactly the fields each config has, and the
    simulated config mirrors the threaded one by construction: the ten
    shared knobs are declared once, in the base next to ``DispatchCore``."""
    from repro.core.dispatch import DispatcherConfigBase
    from repro.core.msg_dispatcher import MsgDispatcherConfig
    from repro.core.sim_dispatcher import SimMsgDispatcherConfig

    shared = {f.name: f.default for f in dataclasses.fields(DispatcherConfigBase)}
    assert shared == {
        "accept_queue": 1024, "destination_queue": 1024, "batch_size": 8,
        "destination_idle_ttl": 10.0, "correlation_ttl": 120.0, "breaker": None,
        "max_inflight": None, "shed_retry_after": 1.0,
        "hold_pump_interval": 0.25, "dedupe_window": None,
    }
    own = {
        MsgDispatcherConfig: {"cx_threads": 4, "ws_threads": 8, "retry": None},
        SimMsgDispatcherConfig: {
            "cx_workers": 4, "ws_workers": 8, "parallel_per_destination": 1,
            "connect_timeout": 21.0, "response_timeout": 30.0,
            "shed_on_full": False,
        },
    }
    for cls, added in own.items():
        assert issubclass(cls, DispatcherConfigBase)
        assert set(cls.__annotations__) == set(added)  # nothing re-declared
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        assert defaults == {**shared, **added}
        assert _documented_fields(cls.__name__) == set(defaults)
        assert cls(batch_size=1).batch_size == 1  # keyword construction


def test_the_fleet_configs_are_documented_and_keep_their_constants():
    """docs/api.md lists exactly the fields of the shard fleet's two
    configs; what they do not carry is a constant every shard shares."""
    from repro.shard import HashRing, ShardSpec, SupervisorConfig, supervisor, worker

    supervisor_fields = {
        "shards": 2, "runtime": "threaded", "data_host": "127.0.0.1",
        "journal_dir": None, "mount_prefix": "/msg", "ws_threads": 8,
        "server_workers": 16, "batch_size": 8, "ready_timeout": 20.0,
    }
    defaults = {f.name: f.default for f in dataclasses.fields(SupervisorConfig)}
    assert defaults == supervisor_fields
    assert _documented_fields("SupervisorConfig") == set(defaults)

    spec_fields = {f.name for f in dataclasses.fields(ShardSpec)}
    assert spec_fields == {
        "shard_id", "shards", "data_host", "data_port", "direct_port", "peers",
        "registry", "mount_prefix", "runtime", "journal_path", "ws_threads",
        "server_workers", "batch_size",
    }
    assert _documented_fields("ShardSpec") == spec_fields

    assert (
        worker.JOURNAL_SYNC, worker.DEDUPE_WINDOW, worker.CX_THREADS,
        worker.RETRY_ATTEMPTS, worker.RETRY_BASE, worker.RETRY_MAX_DELAY,
    ) == ("group", 60.0, 2, 8, 0.05, 0.5)
    assert (supervisor.RESTART_BACKOFF, supervisor.POLL_INTERVAL) == (0.2, 0.05)
    assert HashRing(2).replicas == 64


def test_the_clients_keep_their_constructors_and_metric_surface():
    """One contract underneath (``repro.http.session``) adds no option and
    renames nothing an operator or ``benchmarks/e2e`` reads."""
    import inspect

    from repro.aio import AioHttpClient
    from repro.obs.metrics import MetricsRegistry
    from repro.rt.client import HttpClient
    from repro.simnet.httpsim import SimHttpClientPool

    def parameters(cls) -> dict:
        signature = inspect.signature(cls.__init__).parameters.values()
        return {p.name: p.default for p in signature if p.name != "self"}

    tail = {
        "metrics": None, "overload_retries": 0, "retry_after_cap": 30.0,
    }
    assert parameters(HttpClient) == {
        "connector": inspect.Parameter.empty, "connect_timeout": 5.0,
        "response_timeout": 30.0, "pool_per_endpoint": 4,
        "user_agent": "repro-client/1.0", **tail,
    }
    assert parameters(AioHttpClient) == {
        "connect_timeout": 5.0, "response_timeout": 30.0, "pool_per_endpoint": 4,
        "user_agent": "repro-aio-client/1.0", **tail,
    }
    assert parameters(SimHttpClientPool) == {
        "net": inspect.Parameter.empty, "host": inspect.Parameter.empty,
        "connect_timeout": 21.0, "response_timeout": 30.0, "pool_per_destination": 2,
    }

    def surface(build) -> dict:
        metrics = MetricsRegistry()
        build(metrics)
        return {
            family.name: (
                family.kind, family.help,
                {name for labels, _child in family.samples() for name in labels},
            )
            for family in metrics.families()
        }

    def expected(prefix: str, who: str) -> dict:
        return {
            f"{prefix}_requests_total": (
                "counter", f"HTTP exchanges completed by the {who}", set()),
            f"{prefix}_request_seconds": (
                "histogram", f"wall time of one {who} HTTP exchange", set()),
            f"{prefix}_conn_reuse_total": (
                "counter", "connection checkouts, by outcome", {"outcome"}),
            f"{prefix}_pipeline_bursts_total": (
                "counter", "pipelined write bursts issued on leased connections", set()),
            f"{prefix}_pipeline_replayed_total": (
                "counter",
                "pipelined requests replayed serially after a cut-short burst", set()),
            f"{prefix}_overload_waits_total": (
                "counter",
                "503 responses the client slept out per the server's Retry-After", set()),
        }

    assert surface(lambda m: HttpClient(None, metrics=m)) == expected("rt_client", "client")
    assert surface(lambda m: AioHttpClient(metrics=m)) == expected(
        "aio_client", "asyncio client"
    )


def test_the_rpc_dispatchers_keep_their_constructors_and_add_no_option():
    """One core underneath (``repro.core.rpc``): the RPC-Dispatchers lost
    their load-spreading hook (both), ``max_body`` and ``clock``
    (threaded), and gained nothing; every MSG driver's bridge handler has
    one signature."""
    import inspect

    from repro.aio import AioMsgDispatcher, AioRpcDispatcher
    from repro.core import MsgDispatcher, RpcDispatcher
    from repro.core.sim_dispatcher import SimMsgDispatcher, SimRpcDispatcher

    def parameters(fn) -> dict:
        signature = inspect.signature(fn).parameters.values()
        return {p.name: p.default for p in signature if p.name != "self"}

    empty = inspect.Parameter.empty
    rt = {
        "registry": empty, "client": empty, "mount_prefix": "/rpc",
        "inspector": None, "metrics": None, "traces": None,
        "max_inflight": None, "shed_retry_after": 1.0,
    }
    assert parameters(RpcDispatcher.__init__) == rt
    assert parameters(AioRpcDispatcher.__init__) == rt
    assert parameters(SimRpcDispatcher.__init__) == {
        "net": empty, "host": empty, "registry": empty, "mount_prefix": "/rpc",
        "connect_timeout": 21.0, "response_timeout": 30.0,
        "metrics": None, "traces": None,
    }
    for driver in (MsgDispatcher, AioMsgDispatcher, SimMsgDispatcher):
        assert parameters(driver.bridge_handler) == {
            "request": empty, "bridge_timeout": 30.0, "mount_prefix": "/bridge",
        }, driver

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
        "repro.core.status",
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
        "repro.simnet.metrics",
        "repro.store",
        "repro.util",
        "repro.util.sqldb",
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
        DispatcherFarm,
        MsgDispatcher,
        RegistryService,
        RpcDispatcher,
        ServiceRegistry,
        SsoGate,
        StatusPage,
        TokenIssuer,
    )
    from repro.aio import (
        AioHttpClient,
        AioHttpServer,
        AioLoopThread,
        AioMsgBoxService,
        AioMsgDispatcher,
    )
    from repro.core.loadbalance import make_policy
    from repro.msgbox import MailboxStore, MsgBoxClient, MsgBoxService
    from repro.msgbox.service import make_mailbox_epr
    from repro.obs import (
        Introspection,
        MetricsRegistry,
        TraceStore,
        configure_logging,
        ensure_trace,
    )
    from repro.reliable import DuplicateFilter, ExponentialBackoff, HoldRetryStore
    from repro.simnet import MetricsSampler, Simulator, make_network
    from repro.workload import make_echo_message, make_echo_request
    from repro.wsa import make_reply_headers, rewrite_for_forwarding

    assert all(
        callable(x)
        for x in (
            make_policy, make_mailbox_epr,
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
    simulated config's claim to mirror the threaded one holds: every
    field the two share has the same default."""
    from repro.core.msg_dispatcher import MsgDispatcherConfig
    from repro.core.sim_dispatcher import SimMsgDispatcherConfig

    defaults = {}
    for cls in (MsgDispatcherConfig, SimMsgDispatcherConfig):
        defaults[cls] = {f.name: f.default for f in dataclasses.fields(cls)}
        assert _documented_fields(cls.__name__) == set(defaults[cls])
    threaded, simulated = defaults.values()
    shared = threaded.keys() & simulated.keys()
    assert len(shared) >= 9
    assert {k: threaded[k] for k in shared} == {k: simulated[k] for k in shared}

"""The paper's contribution: WS-Dispatcher (RPC + MSG variants) and Registry.

Layout:

- :mod:`repro.core.registry` — logical→physical service registry (shared
  module, "independent from forwarding requests" per the paper).
- :mod:`repro.core.routing` — pure address-extraction and forwarding
  decisions shared by every dispatcher hosting.
- :mod:`repro.core.rpc` — the RPC-Dispatcher's decisions, written once;
  :mod:`repro.core.rpc_dispatcher` is its threaded driver.
- :mod:`repro.core.dispatch` — the MSG-Dispatcher's decisions, written
  once; :mod:`repro.core.msg_dispatcher` is its threaded driver, with
  CxThread/WsThread pools.
"""

from repro.core.registry import ServiceRecord, ServiceRegistry, RegistryService
from repro.core.routing import extract_logical, logical_uri
from repro.core.rpc_dispatcher import RpcDispatcher
from repro.core.msg_dispatcher import MsgDispatcher, MsgDispatcherConfig

__all__ = [
    "ServiceRecord",
    "ServiceRegistry",
    "RegistryService",
    "extract_logical",
    "logical_uri",
    "RpcDispatcher",
    "MsgDispatcher",
    "MsgDispatcherConfig",
]

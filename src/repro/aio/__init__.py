"""The asyncio runtime backend: C10k on one core.

Third runtime over the shared sans-io wire protocol (after the threaded
``repro.rt`` and the discrete-event ``repro.simnet``): a single-threaded
event loop multiplexes every connection, so the thread-per-connection
ceiling the paper hit — WsThreads/CxThreads stacks exhausting the heap
under firewalled long-poll clients — disappears.  The SOAP application
layer (:class:`~repro.rt.service.SoapHttpApp`), the envelope fast path,
the journal, and the whole observability plane run on the loop verbatim;
only the I/O substrate changes.

- :class:`AioHttpServer` — one protocol object per connection over one
  shared receive buffer; a task only for a request that parks.
- :class:`AioHttpClient` / :class:`AioConnectionLease` — pooled,
  pipelining client (the asyncio wire of :mod:`repro.http.session`).
- :class:`AioMsgDispatcher` — the MSG-Dispatcher on loop tasks.
- :class:`AioRpcDispatcher` — the RPC-Dispatcher, its forward awaited.
- :class:`AioMsgBoxService` — WS-MsgBox whose long polls park coroutines.
- :class:`AioLoopThread` — embed the loop in a synchronous program.
"""

from repro.aio.client import AioConnectionLease, AioHttpClient
from repro.aio.dispatcher import AioMsgDispatcher, AioRpcDispatcher
from repro.aio.msgbox import AioMsgBoxService
from repro.aio.runtime import AioLoopThread
from repro.aio.server import AioHttpServer

__all__ = [
    "AioConnectionLease",
    "AioHttpClient",
    "AioHttpServer",
    "AioLoopThread",
    "AioMsgBoxService",
    "AioMsgDispatcher",
    "AioRpcDispatcher",
]

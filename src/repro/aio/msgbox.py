"""WS-MsgBox on the event loop: long polls that park, not block.

The stock :class:`~repro.msgbox.service.MsgBoxService` serves a
``take(waitSeconds=N)`` long poll by blocking the calling thread in
:meth:`MailboxStore.wait_for_message` — one held thread per firewalled
client, which is the paper's scalability wall.  This subclass keeps every
operation byte-identical on the wire but turns the wait into a parked
coroutine: ``handle`` returns an awaitable for long-poll takes (the
:class:`~repro.rt.service.SoapHttpApp` escape hatch), registers a
one-shot arrival waiter on the store, and resumes when a deposit —
possibly from another thread entirely — fires it.  Ten thousand waiting
pollers cost ten thousand suspended coroutines, not ten thousand stacks.
"""

from __future__ import annotations

import asyncio

from repro.aio.runtime import loop_waker, wait_until_set
from repro.errors import SoapError
from repro.msgbox.service import MsgBoxService
from repro.rt.service import RequestContext
from repro.soap import Envelope, parse_rpc_request


class AioMsgBoxService(MsgBoxService):
    """MsgBoxService whose long polls await instead of blocking.

    Mount it on an :class:`~repro.aio.server.AioHttpServer`; every
    non-long-poll operation (create/peek/destroy, deposits, immediate
    takes) runs the inherited synchronous code unchanged.
    """

    def handle(self, envelope: Envelope, ctx: RequestContext):
        pending = self._longpoll_of(envelope)
        if pending is not None:
            return self._handle_longpoll(envelope, ctx, *pending)
        return super().handle(envelope, ctx)

    def _wait_for_message(self, mailbox_id: str, timeout: float) -> bool:
        # The async path has already waited (or chose not to); the
        # inherited take must never block the loop thread.
        return True

    def _longpoll_of(self, envelope: Envelope):
        """(call, wait_s) when this is a long-poll take; None routes
        everything else to the sync path."""
        if not self._is_rpc(envelope):
            return None
        try:
            call = parse_rpc_request(envelope)
        except SoapError:
            return None  # let the sync path raise its usual fault
        if call.operation != "take":
            return None
        try:
            wait_s = float(call.param("waitSeconds", "0") or "0")
        except ValueError:
            return None
        if wait_s <= 0 or not call.param("mailboxId"):
            return None
        return call, min(wait_s, self.max_wait_seconds)

    async def _handle_longpoll(
        self, envelope: Envelope, ctx: RequestContext, call, wait_s: float
    ):
        self._check_alive()
        mailbox_id = call.param("mailboxId")
        if self.security is not None:
            # authenticate before occupying a parked slot
            self.security.check(mailbox_id, call.param("ownerToken"))
        await self._await_arrival(mailbox_id, wait_s)
        # _wait_for_message is a no-op here, so this take never blocks;
        # an empty result after a racing taker is the same answer the
        # threaded service gives in that race.  The call parsed above is
        # handed over: one parse per take.
        self._check_alive()
        return self._handle_rpc(envelope, ctx, call)

    async def _await_arrival(self, mailbox_id: str, timeout: float) -> bool:
        """Park until the mailbox has a message; False on timeout.

        Raises :class:`~repro.errors.MailboxNotFound` (via
        ``peek_count``) when the mailbox does not exist or is destroyed
        during the wait — destroy fires the waiters precisely so parked
        pollers observe it promptly.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        event = asyncio.Event()
        fire = loop_waker(loop, event.set)
        while True:
            if self.store.peek_count(mailbox_id) > 0:
                return True
            remaining = deadline - loop.time()
            if remaining <= 0:
                return False
            event.clear()
            handle = self.store.add_arrival_waiter(mailbox_id, fire)
            try:
                # re-check: a deposit may have landed between peek and
                # registration, in which case no waiter will ever fire
                if self.store.peek_count(mailbox_id) > 0:
                    return True
                await wait_until_set(loop, event, remaining)
            finally:
                self.store.remove_arrival_waiter(handle)

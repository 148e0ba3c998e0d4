"""Property-based tests of mailbox-store invariants."""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import pytest

from repro.errors import MailboxNotFound, MailboxQuotaExceeded
from repro.msgbox.store import MailboxStore

_payload = st.binary(min_size=1, max_size=64)


@given(st.lists(_payload, min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_deposit_take_preserves_order_and_content(payloads):
    store = MailboxStore(
        max_messages_per_box=1000
    )
    box = store.create()
    for payload in payloads:
        store.deposit(box, payload)
    taken: list[bytes] = []
    while True:
        batch = store.take(box, max_messages=7)
        if not batch:
            break
        taken.extend(batch)
    assert taken == payloads


@given(st.lists(_payload, min_size=1, max_size=30), st.integers(1, 10))
@settings(max_examples=100, deadline=None)
def test_byte_accounting_is_exact(payloads, take_size):
    store = MailboxStore()
    box = store.create()
    expected = 0
    for payload in payloads:
        store.deposit(box, payload)
        expected += len(payload)
        assert store.stats(box)["bytes"] == expected
    while store.peek_count(box):
        for taken in store.take(box, max_messages=take_size):
            expected -= len(taken)
        assert store.stats(box)["bytes"] == expected
    assert store.stats(box)["bytes"] == 0


class MailboxMachine(RuleBasedStateMachine):
    """Stateful test: the store mirrors a model dict of deques exactly."""

    def __init__(self):
        super().__init__()
        self.store = MailboxStore(
            max_mailboxes=10,
            max_messages_per_box=20,
            max_bytes_per_box=1024,
        )
        self.model: dict[str, list[bytes]] = {}

    @rule()
    def create(self):
        if len(self.model) >= 10:
            with pytest.raises(MailboxQuotaExceeded):
                self.store.create()
        else:
            box = self.store.create()
            assert box not in self.model
            self.model[box] = []

    @precondition(lambda self: self.model)
    @rule(payload=_payload, box_idx=st.integers(0, 9))
    def deposit(self, payload, box_idx):
        box = sorted(self.model)[box_idx % len(self.model)]
        messages = self.model[box]
        over_count = len(messages) >= 20
        over_bytes = sum(map(len, messages)) + len(payload) > 1024
        if over_count or over_bytes:
            with pytest.raises(MailboxQuotaExceeded):
                self.store.deposit(box, payload)
        else:
            self.store.deposit(box, payload)
            messages.append(payload)

    @precondition(lambda self: self.model)
    @rule(box_idx=st.integers(0, 9), count=st.integers(1, 5))
    def take(self, box_idx, count):
        box = sorted(self.model)[box_idx % len(self.model)]
        taken = self.store.take(box, max_messages=count)
        expected, self.model[box] = (
            self.model[box][:count],
            self.model[box][count:],
        )
        assert taken == expected

    @precondition(lambda self: self.model)
    @rule(box_idx=st.integers(0, 9))
    def destroy(self, box_idx):
        box = sorted(self.model)[box_idx % len(self.model)]
        self.store.destroy(box)
        del self.model[box]
        with pytest.raises(MailboxNotFound):
            self.store.peek_count(box)

    @invariant()
    def counts_match_model(self):
        assert self.store.mailbox_count() == len(self.model)
        for box, messages in self.model.items():
            assert self.store.peek_count(box) == len(messages)
        for box, messages in self.model.items():
            assert self.store.stats(box)["bytes"] == sum(len(p) for p in messages)


TestMailboxMachine = MailboxMachine.TestCase
TestMailboxMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)

"""Tests for id generation."""

import threading

import pytest

from repro.util.ids import IdGenerator, new_uuid


def test_new_uuid_unique():
    assert new_uuid() != new_uuid()


def test_new_message_id_uses_uuid_scheme():
    """WS-Addressing MessageIDs are ``uuid:`` URIs, as XSUL wrote them."""
    assert IdGenerator("msg").next().startswith("uuid:msg-")


def test_seeded_generator_is_deterministic():
    a = IdGenerator("msg", seed=42)
    b = IdGenerator("msg", seed=42)
    assert [a.next() for _ in range(5)] == [b.next() for _ in range(5)]


def test_different_seeds_differ():
    a = IdGenerator("msg", seed=1)
    b = IdGenerator("msg", seed=2)
    assert a.next() != b.next()


def test_ids_carry_namespace_and_counter():
    gen = IdGenerator("mbox", seed=0)
    first = gen.next()
    second = gen.next()
    assert "mbox" in first
    assert first.endswith("-1")
    assert second.endswith("-2")


def test_next_token_length_and_determinism():
    gen = IdGenerator(seed=7)
    token = gen.next_token(128)
    assert len(token) == 32  # 128 bits as hex
    assert IdGenerator(seed=7).next_token(128) == token


def test_next_token_rejects_nonpositive_bits():
    with pytest.raises(ValueError):
        IdGenerator(seed=0).next_token(0)


def test_thread_safety_no_duplicates():
    gen = IdGenerator(seed=9)
    out: list[str] = []
    lock = threading.Lock()

    def worker():
        local = [gen.next() for _ in range(200)]
        with lock:
            out.extend(local)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(out) == len(set(out)) == 1600

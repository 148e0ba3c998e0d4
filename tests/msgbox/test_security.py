"""Tests for mailbox owner tokens."""

import pytest

from repro.errors import MailboxAuthError
from repro.msgbox.security import MailboxSecurity


def test_mint_is_deterministic_per_box():
    sec = MailboxSecurity(b"secret")
    assert sec.mint("box1") == sec.mint("box1")
    assert sec.mint("box1") != sec.mint("box2")


def test_check_accepts_valid_token():
    sec = MailboxSecurity(b"secret")
    sec.check("box1", sec.mint("box1"))


def test_check_rejects_missing_token():
    sec = MailboxSecurity(b"secret")
    with pytest.raises(MailboxAuthError):
        sec.check("box1", None)
    with pytest.raises(MailboxAuthError):
        sec.check("box1", "")


def test_check_rejects_wrong_token():
    sec = MailboxSecurity(b"secret")
    with pytest.raises(MailboxAuthError):
        sec.check("box1", sec.mint("box2"))


def test_different_secrets_incompatible():
    a = MailboxSecurity(b"one")
    b = MailboxSecurity(b"two")
    with pytest.raises(MailboxAuthError):
        b.check("box", a.mint("box"))


def test_empty_secret_rejected():
    with pytest.raises(ValueError):
        MailboxSecurity(b"")

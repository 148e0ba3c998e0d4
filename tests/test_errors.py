"""Tests for the exception hierarchy contract."""

import pytest

from repro import errors


ALL_ERRORS = [
    errors.XmlError,
    errors.XmlParseError,
    errors.SoapError,
    errors.SoapFaultError,
    errors.AddressingError,
    errors.BadParameter,
    errors.HttpError,
    errors.HttpParseError,
    errors.TransportError,
    errors.ConnectionRefused,
    errors.ConnectionTimeout,
    errors.ConnectionClosed,
    errors.ConnectionLimitExceeded,
    errors.SimulationError,
    errors.SimInterrupt,
    errors.RegistryError,
    errors.UnknownServiceError,
    errors.RoutingError,
    errors.MailboxError,
    errors.MailboxNotFound,
    errors.MailboxQuotaExceeded,
    errors.MailboxAuthError,
    errors.AuthError,
    errors.DeliveryExpired,
    errors.JournalError,
]


@pytest.mark.parametrize("exc_type", ALL_ERRORS)
def test_everything_derives_from_repro_error(exc_type):
    assert issubclass(exc_type, errors.ReproError)


def test_transport_taxonomy():
    for sub in (
        errors.ConnectionRefused,
        errors.ConnectionTimeout,
        errors.ConnectionClosed,
        errors.ConnectionLimitExceeded,
    ):
        assert issubclass(sub, errors.TransportError)


def test_mailbox_taxonomy():
    for sub in (
        errors.MailboxNotFound,
        errors.MailboxQuotaExceeded,
        errors.MailboxAuthError,
    ):
        assert issubclass(sub, errors.MailboxError)


def test_soap_fault_error_carries_fields():
    exc = errors.SoapFaultError("Client", "bad", detail="d")
    assert exc.code == "Client"
    assert exc.reason == "bad"
    assert exc.detail == "d"
    assert "Client" in str(exc)


def test_xml_parse_error_location_formats():
    assert "(line 3)" in str(errors.XmlParseError("x", line=3))
    assert "(offset 9)" in str(errors.XmlParseError("x", pos=9))
    assert str(errors.XmlParseError("bare")) == "bare"


def test_unknown_service_error_carries_logical():
    exc = errors.UnknownServiceError("echo")
    assert exc.logical == "echo"
    assert "echo" in str(exc)


def test_sim_interrupt_carries_cause():
    exc = errors.SimInterrupt(cause="deadline")
    assert exc.cause == "deadline"

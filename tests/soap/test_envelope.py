"""Tests for SOAP envelope build/parse."""

import pytest

from repro.errors import SoapError
from repro.soap import Envelope, SOAP11_NS, SOAP12_NS, SoapVersion
from repro.soap.fault import Fault
from repro.xmlmini import Element, QName, parse


def make_body():
    return Element(QName("urn:test", "op"), text="payload")


class TestBuild:
    def test_minimal_envelope(self):
        env = Envelope(make_body())
        root = env.to_element()
        assert root.name == QName(SOAP11_NS, "Envelope")
        body = root.require(QName(SOAP11_NS, "Body"))
        assert body.require(QName("urn:test", "op")).text == "payload"

    def test_no_header_element_when_empty(self):
        root = Envelope(make_body()).to_element()
        assert root.find(QName(SOAP11_NS, "Header")) is None

    def test_headers_serialized_in_order(self):
        h1 = Element(QName("urn:h", "first"))
        h2 = Element(QName("urn:h", "second"))
        root = Envelope(make_body(), headers=[h1, h2]).to_element()
        header = root.require(QName(SOAP11_NS, "Header"))
        assert [c.name.local for c in header.element_children()] == [
            "first",
            "second",
        ]

    def test_soap12_namespace(self):
        env = Envelope(make_body(), version=SoapVersion.V12)
        assert env.to_element().name.ns == SOAP12_NS

    def test_empty_body_allowed(self):
        root = Envelope(None).to_element()
        body = root.require(QName(SOAP11_NS, "Body"))
        assert list(body.element_children()) == []

    def test_to_bytes_has_xml_decl(self):
        assert Envelope(make_body()).to_bytes().startswith(b"<?xml")


class TestParse:
    def test_roundtrip(self):
        env = Envelope(
            make_body(), headers=[Element(QName("urn:h", "hdr"), text="v")]
        )
        parsed = Envelope.from_bytes(env.to_bytes())
        assert parsed.version is SoapVersion.V11
        assert parsed.body == env.body
        assert parsed.headers == env.headers

    def test_soap12_roundtrip(self):
        env = Envelope(make_body(), version=SoapVersion.V12)
        assert Envelope.from_bytes(env.to_bytes()).version is SoapVersion.V12

    def test_rejects_non_envelope_root(self):
        with pytest.raises(SoapError):
            Envelope.from_element(parse("<a xmlns='urn:x'/>"))

    def test_rejects_unknown_envelope_namespace(self):
        with pytest.raises(SoapError):
            Envelope.from_bytes(
                b"<e:Envelope xmlns:e='urn:fake'><e:Body/></e:Envelope>"
            )

    def test_rejects_missing_body(self):
        doc = f"<e:Envelope xmlns:e='{SOAP11_NS}'/>".encode()
        with pytest.raises(SoapError):
            Envelope.from_bytes(doc)

    def test_rejects_duplicate_body(self):
        doc = (
            f"<e:Envelope xmlns:e='{SOAP11_NS}'><e:Body/><e:Body/></e:Envelope>"
        ).encode()
        with pytest.raises(SoapError):
            Envelope.from_bytes(doc)

    def test_rejects_header_after_body(self):
        doc = (
            f"<e:Envelope xmlns:e='{SOAP11_NS}'>"
            "<e:Body/><e:Header/></e:Envelope>"
        ).encode()
        with pytest.raises(SoapError):
            Envelope.from_bytes(doc)

    def test_rejects_multiple_body_children(self):
        doc = (
            f"<e:Envelope xmlns:e='{SOAP11_NS}'><e:Body>"
            "<a xmlns='urn:x'/><b xmlns='urn:x'/></e:Body></e:Envelope>"
        ).encode()
        with pytest.raises(SoapError):
            Envelope.from_bytes(doc)

    def test_rejects_unknown_envelope_child(self):
        doc = (
            f"<e:Envelope xmlns:e='{SOAP11_NS}'><e:Mystery/>"
            "<e:Body/></e:Envelope>"
        ).encode()
        with pytest.raises(SoapError):
            Envelope.from_bytes(doc)


class TestHeaderAccess:
    def test_find_header(self):
        h = Element(QName("urn:h", "a"), text="1")
        env = Envelope(make_body(), headers=[h])
        assert env.find_header(QName("urn:h", "a")) is h
        assert env.find_header(QName("urn:h", "zzz")) is None

    def test_find_and_remove_by_namespace(self):
        env = Envelope(
            make_body(),
            headers=[
                Element(QName("urn:a", "x")),
                Element(QName("urn:b", "y")),
                Element(QName("urn:a", "z")),
            ],
        )
        removed = env.remove_headers("urn:a")
        assert len(removed) == 2
        assert [h.name.ns for h in env.headers] == ["urn:b"]

    def test_copy_is_deep(self):
        env = Envelope(make_body(), headers=[Element(QName("urn:h", "a"))])
        dup = env.copy()
        dup.body.children[0] = "changed"
        dup.headers[0].name = QName("urn:h", "b")
        assert env.body.text == "payload"
        assert env.headers[0].name.local == "a"


class TestFaultDetection:
    def test_is_fault(self):
        fault = Fault("Server", "boom")
        env = Envelope(fault.to_element(SoapVersion.V11))
        assert env.is_fault()

    def test_version_mismatched_fault_is_not_fault(self):
        fault_el = Fault("Server", "boom").to_element(SoapVersion.V12)
        env = Envelope(fault_el, version=SoapVersion.V11)
        assert not env.is_fault()

    def test_plain_body_is_not_fault(self):
        assert not Envelope(make_body()).is_fault()

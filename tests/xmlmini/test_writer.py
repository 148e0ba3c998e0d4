"""Tests for the XML serializer."""

import pytest

from repro.errors import XmlError
from repro.xmlmini import Element, QName, parse, serialize, write_document
from repro.xmlmini.names import XMLNS_NS
from repro.xmlmini.writer import escape_attr, escape_text


def test_empty_element_self_closes():
    assert serialize(Element("a")) == "<a/>"


def test_text_escaping():
    assert serialize(Element("a", text="x < y & z > w")) == (
        "<a>x &lt; y &amp; z &gt; w</a>"
    )


def test_attr_escaping():
    e = Element("a")
    e.set("k", 'va"l\nue')
    assert 'k="va&quot;l&#10;ue"' in serialize(e)


def test_escape_helpers():
    assert escape_text("&<>") == "&amp;&lt;&gt;"
    assert escape_attr('"\t\r') == "&quot;&#9;&#13;"


def test_preferred_prefixes_used():
    soap = "http://schemas.xmlsoap.org/soap/envelope/"
    out = serialize(Element(QName(soap, "Envelope")))
    assert out.startswith("<soapenv:Envelope")


def test_auto_prefixes_for_unknown_namespaces():
    out = serialize(Element(QName("urn:custom", "a")))
    assert 'xmlns:n0="urn:custom"' in out


def test_namespaces_hoisted_to_root():
    root = Element("root")
    root.add(Element(QName("urn:x", "a")))
    root.add(Element(QName("urn:x", "b")))
    out = serialize(root)
    assert out.count("urn:x") == 1  # declared once, on the root


def test_xml_decl():
    assert serialize(Element("a"), xml_decl=True).startswith("<?xml")
    assert write_document(Element("a")) == b'<?xml version="1.0" encoding="UTF-8"?><a/>'


def test_xmlns_attrs_never_copied_through():
    e = Element("a", attrs={QName(XMLNS_NS, "stale"): "urn:old"})
    assert "urn:old" not in serialize(e)


def test_element_in_xmlns_namespace_rejected():
    with pytest.raises(XmlError):
        serialize(Element(QName(XMLNS_NS, "bogus")))


def test_mixed_namespaced_and_plain():
    root = Element(QName("urn:x", "r"))
    root.add(Element("plain", text="t"))
    reparsed = parse(serialize(root))
    assert reparsed.find(QName(None, "plain")).text == "t"


def test_roundtrip_complex_document():
    doc = (
        '<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/">'
        "<soapenv:Header>"
        '<wsa:To xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/08/addressing">urn:x</wsa:To>'
        "</soapenv:Header>"
        '<soapenv:Body><e:echo xmlns:e="urn:echo"><text>hi &amp; bye</text></e:echo></soapenv:Body>'
        "</soapenv:Envelope>"
    )
    tree = parse(doc)
    assert parse(serialize(tree)) == tree


def test_deterministic_output():
    root = Element(QName("urn:a", "r"))
    root.set(QName("urn:b", "x"), "1")
    root.add(Element(QName("urn:c", "child")))
    assert serialize(root) == serialize(root.copy())


def test_serialize_keeps_no_reference_to_what_it_wrote():
    """The one-pass walk must not leave its output list in a reference
    cycle: the collector would free it late, and with it every text run
    of the document (64 KiB bodies on the DOM path)."""
    import gc
    import sys

    text = "".join(["x"] * 100)
    tree = Element(QName("urn:a", "r"), children=[Element("c", children=[text])])
    before = sys.getrefcount(text)
    gc.disable()
    try:
        serialize(tree)
        serialize(tree, xml_decl=True)
        after = sys.getrefcount(text)
    finally:
        gc.enable()
    assert after == before

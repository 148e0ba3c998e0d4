"""Tests for the byte-offset envelope scanner (zero-copy fast path)."""

import pytest

from repro.errors import FastPathUnsupported
from repro.xmlmini import QName, parse, parse_fragment, scan_envelope

SOAP = "http://schemas.xmlsoap.org/soap/envelope/"


def doc(header="", body="<p>hi</p>", decl='<?xml version="1.0"?>'):
    h = f"<s:Header>{header}</s:Header>" if header is not None else ""
    return (
        f'{decl}<s:Envelope xmlns:s="{SOAP}">{h}<s:Body>{body}</s:Body>'
        f"</s:Envelope>"
    ).encode()


def bail_reason(data):
    with pytest.raises(FastPathUnsupported) as exc_info:
        scan_envelope(data)
    return exc_info.value.reason


def test_scan_offsets_reconstruct_the_document():
    data = doc(header="<a>1</a>")
    scan = scan_envelope(data)
    assert scan.root_name == QName(SOAP, "Envelope")
    # preamble + header span + tail is the whole document
    header_bytes = data[scan.splice_start : scan.tail_start]
    assert header_bytes.startswith(b"<s:Header>")
    assert header_bytes.endswith(b"</s:Header>")
    assert data[: scan.splice_start] + header_bytes + data[scan.tail_start :] == data


def test_body_view_is_zero_copy_slice():
    data = doc(body="<p>payload</p>")
    scan = scan_envelope(data)
    view = scan.body_view
    assert isinstance(view, memoryview)
    assert bytes(view) == data[scan.body_start : scan.body_end]
    assert bytes(view).startswith(b"<s:Body>")
    assert bytes(view).endswith(b"</s:Body>")


def test_header_parsed_matches_dom_parse():
    data = doc(header='<a x="1">one</a><b>two</b>')
    scan = scan_envelope(data)
    dom = parse(data)
    dom_header = next(iter(dom.element_children()))
    assert scan.header == dom_header


def test_no_header_splices_at_body():
    data = doc(header=None)
    scan = scan_envelope(data)
    assert scan.header is None
    assert scan.splice_start == scan.tail_start == scan.body_start


def test_body_first_child_and_count():
    scan = scan_envelope(doc(body="<p><q/><q/></p>"))
    assert scan.body_children == 1
    assert scan.body_first_child == QName(None, "p")
    scan = scan_envelope(doc(body=""))
    assert scan.body_children == 0
    assert scan.body_first_child is None


def test_body_with_cdata_comments_and_pi():
    body = "<p><![CDATA[ </fake> ]]><!-- <s:Body> --><?pi data?>text</p>"
    data = doc(body=body)
    scan = scan_envelope(data)
    assert scan.body_children == 1
    assert bytes(scan.body_view).endswith(b"</s:Body>")


def test_quoted_angle_brackets_in_attributes():
    data = doc(body='<p attr="a &gt; b" other=\'x>y\'><q/></p>')
    scan = scan_envelope(data)
    assert scan.body_first_child == QName(None, "p")


def test_self_closing_body():
    data = (
        f'<s:Envelope xmlns:s="{SOAP}"><s:Header><h/></s:Header><s:Body/>'
        f"</s:Envelope>"
    ).encode()
    scan = scan_envelope(data)
    assert scan.body_children == 0
    assert bytes(scan.body_view) == b"<s:Body/>"


def test_prolog_comments_and_bom():
    data = b"\xef\xbb\xbf" + doc(decl='<?xml version="1.0" encoding="UTF-8"?>')
    data = data.replace(b"?><s:", b"?><!-- hello --><?pi?><s:", 1)
    scan = scan_envelope(data)
    assert scan.root_name.local == "Envelope"


def test_trailing_comment_accepted():
    data = doc() + b"<!-- trailer -->  "
    assert scan_envelope(data).root_name.local == "Envelope"


# -- bail-outs ------------------------------------------------------------

def test_bails_on_doctype():
    data = b'<?xml version="1.0"?><!DOCTYPE x []>' + doc(decl="")
    assert bail_reason(data) == "doctype"


def test_bails_on_non_utf8_encoding_declaration():
    data = doc(decl='<?xml version="1.0" encoding="latin-1"?>')
    assert bail_reason(data) == "encoding"


def test_bails_on_skipped_markup_that_is_not_utf8():
    for where in (b"<s:Header>", b"<s:Body>", b"</s:Envelope>"):
        data = doc().replace(where, b"<!-- \xff -->" + where)
        assert bail_reason(data) == "encoding"
    # inside the Body nothing is read, and nothing is judged
    assert scan_envelope(doc(body="<p><!-- \xff --></p>")).body_children == 1


def test_bails_on_multi_root():
    assert bail_reason(doc() + b"<extra/>") == "trailing_content"


def test_bails_on_text_after_body():
    data = doc().replace(b"</s:Envelope>", b"junk</s:Envelope>")
    assert bail_reason(data) == "trailing_content"


def test_bails_on_envelope_child_in_foreign_namespace():
    data = doc().replace(b"<s:Body>", b'<x xmlns="urn:x"/><s:Body>')
    assert bail_reason(data) == "structure"


def test_bails_on_missing_body():
    data = f'<s:Envelope xmlns:s="{SOAP}"><s:Header/></s:Envelope>'.encode()
    assert bail_reason(data) == "structure"


def test_bails_on_duplicate_header():
    data = doc(header="<a/>").replace(
        b"</s:Header>", b"</s:Header><s:Header></s:Header>", 1
    )
    assert bail_reason(data) == "structure"


def test_bails_on_entity_in_namespace_declaration():
    data = doc().replace(
        b"<p>hi</p>", b'<p><i xmlns:q="urn:a&amp;b"><q:x/></i></p>', 1
    )
    # below the Body's first child nothing is decoded, so this is fine ...
    assert scan_envelope(data).body_children == 1
    # ... but on a scanned tag it forces the slow path
    bad = doc().replace(
        f'xmlns:s="{SOAP}"'.encode(),
        f'xmlns:s="{SOAP}" xmlns:q="urn:a&amp;b"'.encode(),
        1,
    )
    assert bail_reason(bad) == "unsupported"


def test_bails_on_undeclared_prefix():
    data = f'<s:Envelope xmlns:x="{SOAP}"><x:Body/></s:Envelope>'.encode()
    assert bail_reason(data) == "malformed"


def test_bails_on_unterminated_document():
    assert bail_reason(doc()[:-5]) in ("malformed", "structure")


def test_bails_on_mismatched_end_tag():
    data = doc().replace(b"</s:Envelope>", b"</s:Envelop>")
    assert bail_reason(data) in ("malformed", "structure")


# -- parse_fragment -------------------------------------------------------

def test_parse_fragment_uses_outer_scope():
    el = parse_fragment("<q:x>v</q:x>", {"q": "urn:q", None: "urn:default"})
    assert el.name == QName("urn:q", "x")
    el = parse_fragment("<y/>", {None: "urn:default"})
    assert el.name == QName("urn:default", "y")


def test_parse_fragment_rejects_trailing_content():
    from repro.errors import XmlParseError

    with pytest.raises(XmlParseError):
        parse_fragment("<a/><b/>", {})

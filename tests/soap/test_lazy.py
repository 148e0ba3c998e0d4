"""LazyEnvelope: byte-splice serialization equivalence and bail-out coverage.

The property the fast path must hold: for any supported document, parsing
with :class:`LazyEnvelope`, rewriting headers, and splice-serializing must
yield bytes that a full DOM parse reads back as the *same* envelope the
slow path (Envelope parse → rewrite → serialize) produces.
"""

import pytest

from repro.errors import FastPathUnsupported, SoapError, XmlError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACE_NS, TraceContext, attach_trace, extract_trace
from repro.soap import (
    KNOWN_HEADER_NAMESPACES,
    Envelope,
    LazyEnvelope,
    SoapVersion,
    fastpath_counter,
    parse_envelope,
)
from repro.wsa import AddressingHeaders, WSA_NS, rewrite_for_forwarding
from repro.xmlmini import Element, QName

SOAP11 = "http://schemas.xmlsoap.org/soap/envelope/"
SOAP12 = "http://www.w3.org/2003/05/soap-envelope"
DISPATCHER = "http://wsd:8000/msg"
PHYSICAL = "http://inside:9000/echo"


def addressed_doc(prefix="s", soap_ns=SOAP11, extra_header="", body=None):
    """Hand-written envelope bytes with WS-Addressing headers."""
    body = body if body is not None else f"<e:echo xmlns:e='urn:echo'>hi</e:echo>"
    return (
        f'<?xml version="1.0"?>'
        f'<{prefix}:Envelope xmlns:{prefix}="{soap_ns}" xmlns:wsa="{WSA_NS}">'
        f"<{prefix}:Header>"
        f"<wsa:To>urn:wsd:echo</wsa:To>"
        f"<wsa:Action>urn:echo/echo</wsa:Action>"
        f"<wsa:MessageID>uuid:m1</wsa:MessageID>"
        f"{extra_header}"
        f"</{prefix}:Header>"
        f"<{prefix}:Body>{body}</{prefix}:Body>"
        f"</{prefix}:Envelope>"
    ).encode()


def assert_same_envelope(a: Envelope, b: Envelope) -> None:
    assert a.version is b.version
    assert a.headers == b.headers
    assert a.body == b.body


# -- parse / serialize equivalence ----------------------------------------

VARIANTS = [
    pytest.param(addressed_doc(), id="plain"),
    pytest.param(addressed_doc(prefix="SOAP-ENV"), id="soapenv-prefix"),
    pytest.param(addressed_doc(prefix="s", soap_ns=SOAP12), id="soap12"),
    pytest.param(
        addressed_doc(body="<e:echo xmlns:e='urn:echo'><![CDATA[a<b&c]]></e:echo>"),
        id="cdata-body",
    ),
    pytest.param(
        addressed_doc(extra_header="<!-- audit --><x:tag xmlns:x='urn:x'>t</x:tag>"),
        id="comment-and-foreign-header",
    ),
    pytest.param(
        addressed_doc().replace(b"><", b">\n  <"), id="pretty-printed"
    ),
    pytest.param(
        (
            f'<Envelope xmlns="{SOAP11}" xmlns:wsa="{WSA_NS}"><Header>'
            f"<wsa:To>urn:wsd:echo</wsa:To><wsa:MessageID>uuid:m1</wsa:MessageID>"
            f"<wsa:Action>a</wsa:Action></Header>"
            f"<Body><e xmlns='urn:echo'>hi</e></Body></Envelope>"
        ).encode(),
        id="default-namespace",
    ),
]


@pytest.mark.parametrize("data", VARIANTS)
def test_lazy_parse_matches_dom_parse(data):
    lazy = LazyEnvelope.from_bytes(data)
    slow = Envelope.from_bytes(data)
    assert_same_envelope(lazy.materialize(), slow)


@pytest.mark.parametrize("data", VARIANTS)
def test_splice_roundtrip_reparses_identically(data):
    out = LazyEnvelope.from_bytes(data).to_bytes()
    assert_same_envelope(Envelope.from_bytes(out), Envelope.from_bytes(data))


@pytest.mark.parametrize("data", VARIANTS)
def test_rewrite_parity_with_slow_path(data):
    fast = rewrite_for_forwarding(
        LazyEnvelope.from_bytes(data), PHYSICAL, DISPATCHER
    )
    slow = rewrite_for_forwarding(Envelope.from_bytes(data), PHYSICAL, DISPATCHER)
    assert isinstance(fast.envelope, LazyEnvelope)
    assert_same_envelope(
        Envelope.from_bytes(fast.envelope.to_bytes()),
        Envelope.from_bytes(slow.envelope.to_bytes()),
    )
    fast_hdr = AddressingHeaders.from_envelope(fast.envelope)
    assert fast_hdr.to == PHYSICAL
    assert fast_hdr.reply_to.address == DISPATCHER


def test_body_bytes_forwarded_verbatim():
    body = "<e:echo xmlns:e='urn:echo'><![CDATA[raw &amp; ugly]]><!-- c --></e:echo>"
    data = addressed_doc(body=body)
    out = rewrite_for_forwarding(
        LazyEnvelope.from_bytes(data), PHYSICAL, DISPATCHER
    ).envelope.to_bytes()
    # the Body byte range is spliced, never re-serialized
    assert body.encode() in out


def test_header_api_parity():
    data = addressed_doc()
    lazy = LazyEnvelope.from_bytes(data)
    q_to = QName(WSA_NS, "To")
    assert lazy.find_header(q_to).text == "urn:wsd:echo"
    assert len(lazy.find_headers(WSA_NS)) == 3
    removed = lazy.remove_headers(WSA_NS)
    assert len(removed) == 3
    assert lazy.find_header(q_to) is None
    # the original document is untouched; only serialization reflects it
    assert Envelope.from_bytes(lazy.to_bytes()).headers == []


def test_copy_isolates_headers():
    lazy = LazyEnvelope.from_bytes(addressed_doc())
    dup = lazy.copy()
    dup.remove_headers(WSA_NS)
    assert lazy.find_header(QName(WSA_NS, "To")) is not None


def test_body_is_parsed_lazily_and_cached():
    lazy = LazyEnvelope.from_bytes(addressed_doc())
    assert lazy.body is lazy.body
    assert lazy.body.name == QName("urn:echo", "echo")
    assert lazy.version is SoapVersion.V11


def test_body_name_is_answered_without_parsing_the_body():
    data = addressed_doc()
    lazy = LazyEnvelope.from_bytes(data)
    assert lazy.body_name == QName("urn:echo", "echo") == Envelope.from_bytes(data).body_name
    assert not lazy._body_parsed
    empty = addressed_doc(body="")
    assert LazyEnvelope.from_bytes(empty).body_name is None
    assert Envelope.from_bytes(empty).body_name is None


def test_empty_body_and_fault_detection():
    no_body_child = addressed_doc(body="")
    assert LazyEnvelope.from_bytes(no_body_child).body is None
    fault = (
        f'<s:Envelope xmlns:s="{SOAP11}"><s:Body><s:Fault>'
        f"<faultcode>Server</faultcode><faultstring>boom</faultstring>"
        f"</s:Fault></s:Body></s:Envelope>"
    ).encode()
    assert LazyEnvelope.from_bytes(fault).is_fault()
    assert not LazyEnvelope.from_bytes(addressed_doc()).is_fault()


def test_headerless_document_roundtrips_verbatim():
    data = f'<s:Envelope xmlns:s="{SOAP11}"><s:Body><p/></s:Body></s:Envelope>'.encode()
    assert LazyEnvelope.from_bytes(data).to_bytes() == data


def test_trace_headers_survive_the_fast_path():
    env = Envelope(Element(QName("urn:echo", "echo"), text="hi"))
    ctx = TraceContext.new()
    attach_trace(env, ctx)
    lazy = LazyEnvelope.from_bytes(env.to_bytes())
    assert extract_trace(lazy).trace_id == ctx.trace_id


# -- bail-out conditions ---------------------------------------------------

def bail_reason(data):
    with pytest.raises(FastPathUnsupported) as exc_info:
        LazyEnvelope.from_bytes(data)
    return exc_info.value.reason


def test_bails_on_doctype():
    data = b"<!DOCTYPE x []>" + addressed_doc().split(b"?>", 1)[1]
    assert bail_reason(b'<?xml version="1.0"?>' + data) == "doctype"


def test_bails_on_encoding_declaration():
    data = addressed_doc().replace(
        b'version="1.0"', b'version="1.0" encoding="iso-8859-1"'
    )
    assert bail_reason(data) == "encoding"


def test_bails_on_multi_root():
    assert bail_reason(addressed_doc() + b"<again/>") == "trailing_content"


def test_bails_on_not_an_envelope():
    assert bail_reason(b"<note><to>x</to></note>") == "not_envelope"
    wrong_ns = addressed_doc().replace(SOAP11.encode(), b"urn:not-soap")
    assert bail_reason(wrong_ns) == "not_envelope"


def test_bails_on_version_mismatch():
    data = addressed_doc().replace(
        f"<s:Body".encode(), f'<z:Body xmlns:z="{SOAP12}"'.encode()
    ).replace(b"</s:Body>", b"</z:Body>")
    assert bail_reason(data) == "version_mismatch"


def test_bails_on_malformed_xml():
    assert bail_reason(addressed_doc()[:-7]) in ("malformed", "structure")


def test_bails_on_multiple_body_children():
    data = addressed_doc(body="<a/><b/>")
    assert bail_reason(data) == "structure"


def test_bails_on_mustunderstand_in_unknown_namespace():
    mu = (
        '<sec:Token xmlns:sec="urn:acme:sec" '
        's:mustUnderstand="1">t</sec:Token>'
    )
    assert bail_reason(addressed_doc(extra_header=mu)) == "mustunderstand"
    spelled_true = mu.replace('"1"', '"true"')
    assert bail_reason(addressed_doc(extra_header=spelled_true)) == "mustunderstand"


def test_mustunderstand_in_known_namespaces_stays_fast():
    mu_wsa = '<wsa:To2 s:mustUnderstand="1" xmlns:wsa="%s">x</wsa:To2>' % WSA_NS
    env = LazyEnvelope.from_bytes(addressed_doc(extra_header=mu_wsa))
    assert isinstance(env, LazyEnvelope)
    # mustUnderstand="0" anywhere is also fine
    mu_off = '<sec:T xmlns:sec="urn:acme" s:mustUnderstand="0">t</sec:T>'
    assert LazyEnvelope.from_bytes(addressed_doc(extra_header=mu_off))


def test_known_header_namespaces_track_the_dispatchers_own_headers():
    # the fast path may only skip the mustUnderstand bail for namespaces the
    # dispatcher itself understands; keep the frozen set in sync
    assert WSA_NS in KNOWN_HEADER_NAMESPACES
    assert TRACE_NS in KNOWN_HEADER_NAMESPACES


# -- parse_envelope dispatcher entry point ---------------------------------

def outcome(registry, label):
    return fastpath_counter(registry).labels(outcome=label).get()


def test_parse_envelope_fast_outcome():
    registry = MetricsRegistry()
    counter = fastpath_counter(registry)
    env = parse_envelope(addressed_doc(), counter=counter)
    assert isinstance(env, LazyEnvelope)
    assert outcome(registry, "fast") == 1


def test_parse_envelope_falls_back_on_bail():
    registry = MetricsRegistry()
    counter = fastpath_counter(registry)
    data = addressed_doc().replace(
        b'version="1.0"', b'version="1.0" encoding="us-ascii"'
    )
    # a non-utf-8 encoding label: the scanner refuses, the DOM parser reads
    # the encodings of its closed list
    env = parse_envelope(data, counter=counter)
    assert isinstance(env, Envelope)
    assert outcome(registry, "encoding") == 1
    assert outcome(registry, "fast") == 0


def test_parse_envelope_refuses_an_unlisted_encoding_by_name():
    registry = MetricsRegistry()
    data = addressed_doc().replace(
        b'version="1.0"', b'version="1.0" encoding="utf-16"'
    )
    with pytest.raises(XmlError, match="utf-16"):
        parse_envelope(data, counter=fastpath_counter(registry))
    assert outcome(registry, "encoding") == 1


def test_parse_envelope_invalid_document_raises_like_slow_path():
    with pytest.raises((XmlError, SoapError)):
        parse_envelope(b"<not-even-close", counter=None)

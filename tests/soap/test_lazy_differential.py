"""Fast path ≡ slow path, on generated envelopes and byte-level damage.

For any bytes, ``parse_envelope`` counts exactly one outcome and then
either bails out — and says what ``Envelope.from_bytes`` says, tree or
exception — or hands back a ``LazyEnvelope`` whose headers are the DOM
parser's and whose Body is a byte-identical slice of the input.  The one
licence the fast path has is that it never reads inside the Body: where
the DOM parser refuses a document the scanner took, the fault must lie in
that slice, past the Body's start tag.
"""

from hypothesis import example, given, settings, strategies as st

from repro.errors import SoapError, XmlError
from repro.obs.metrics import MetricsRegistry
from repro.soap import Envelope, LazyEnvelope, fastpath_counter, parse_envelope
from repro.wsa import WSA_NS
from repro.xmlmini.parser import START_TAG

SOAP11 = "http://schemas.xmlsoap.org/soap/envelope/"
SOAP12 = "http://www.w3.org/2003/05/soap-envelope"

_text = st.lists(
    st.sampled_from(
        ["urn:x", "é", " ", "\n", "&amp;", "&lt;", "&#65;", "&#x42;", "<![CDATA[a<b&c>]]>",
         "<!-- c -->", "<?pi d?>", "&bogus;"]
    ),
    max_size=4,
).map("".join)
_attr_value = st.lists(
    st.sampled_from(["v", "p>q", "é", "&quot;", "&#x41;", "&amp;", "'", " "]), max_size=3
).map("".join)
_gap = st.sampled_from(["", "", " ", "\n  "])  # whitespace inside tags
_encoding = st.sampled_from(
    [None, None, "UTF-8", "utf8", "US-ASCII", "ISO-8859-1", "latin1", "utf-16", "cp1252"]
)


@st.composite
def header_blocks(draw):
    kind = draw(st.integers(0, 4))
    gap, text = draw(_gap), draw(_text)
    if kind == 0:
        return f"<wsa:To{gap}>{text}</wsa:To{gap}>"
    if kind == 1:
        return f'<x:tag xmlns:x="urn:x" a="{draw(_attr_value)}"{gap} x:b = \'q\'>{text}</x:tag>'
    if kind == 2:
        return f"<plain xmlns=''{gap}><inner>{text}</inner></plain>"
    if kind == 3:
        return draw(st.sampled_from(["<!-- audit -->", "<?audit on?>", "\n  "]))
    return f"<wsa:MessageID{gap}/>"


@st.composite
def envelopes(draw):
    """(text, encoding label or None) of an addressed envelope."""
    prefix = draw(st.sampled_from(["s", "SOAP-ENV", None]))
    soap_ns = draw(st.sampled_from([SOAP11, SOAP12]))
    tag = (lambda local: f"{prefix}:{local}") if prefix else (lambda local: local)
    xmlns = f"xmlns:{prefix}" if prefix else "xmlns"
    gap = draw(_gap)
    label = draw(_encoding)
    decl = draw(st.sampled_from(["", '<?xml version="1.0"?>']))
    if label is not None:
        decl = f'<?xml version="1.0" encoding="{label}"?>'
    header = ""
    if draw(st.booleans()):
        blocks = "".join(draw(st.lists(header_blocks(), max_size=3)))
        header = f"<{tag('Header')}{gap}>{blocks}</{tag('Header')}>"
    children = draw(st.integers(0, 2))
    body = "".join(
        f'<e:echo xmlns:e="urn:echo" n="{draw(_attr_value)}">{draw(_text)}</e:echo>'
        for _ in range(children)
    )
    text = (
        f"{decl}{draw(_gap)}<{tag('Envelope')} {xmlns}=\"{soap_ns}\" xmlns:wsa=\"{WSA_NS}\"{gap}>"
        f"{header}{draw(_gap)}<{tag('Body')}{gap}>{body}</{tag('Body')}{gap}>"
        f"</{tag('Envelope')}{gap}>{draw(st.sampled_from(['', '<!-- bye -->', chr(10)]))}"
    )
    return text, label


_DAMAGE = [b"<", b">", b"/", b"&", b";", b'"', b"'", b"=", b" ", b"--", b"<!--", b"]]>",
           b"<![CDATA[", b"<?", b"<!DOCTYPE x>", b"</", b"/>", b"xmlns:", b":", b"\xc3", b"\xe9"]


@st.composite
def wire_bytes(draw):
    text, label = draw(envelopes())
    codec = {"ISO-8859-1": "latin-1", "latin1": "latin-1"}.get(label, "utf-8")
    data = text.encode(codec)
    if draw(st.booleans()) and draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(data)))
        if draw(st.booleans()):
            data = data[:at] + draw(st.sampled_from(_DAMAGE)) + data[at:]
        else:
            data = data[:at] + data[at + draw(st.integers(1, 8)) :]
    return data


def dom_verdict(data):
    try:
        return Envelope.from_bytes(data)
    except (XmlError, SoapError) as exc:
        return type(exc)


def _spliced_tag_faults():
    """An undeclared attribute prefix and a duplicate attribute, on each of
    the two start tags the fast path splices through unparsed."""
    for envelope_attrs, body_attrs in (
        (' q:x="1"', ""), (' x="1" x="2"', ""), ("", ' q:x="1"'), ("", ' x="1" x="2"'),
    ):
        yield (
            f'<s:Envelope xmlns:s="{SOAP11}"{envelope_attrs}>'
            f"<s:Body{body_attrs}></s:Body></s:Envelope>"
        ).encode()


_ENVELOPE_PREFIX, _ENVELOPE_TWICE, _BODY_PREFIX, _BODY_TWICE = _spliced_tag_faults()


@given(wire_bytes())
@example(_ENVELOPE_PREFIX)
@example(_ENVELOPE_TWICE)
@example(_BODY_PREFIX)
@example(_BODY_TWICE)
@settings(max_examples=600, deadline=None)
def test_fast_path_agrees_with_the_dom_parser(data):
    registry = MetricsRegistry()
    try:
        got = parse_envelope(data, counter=fastpath_counter(registry))
    except (XmlError, SoapError) as exc:
        got = type(exc)
    outcomes = {
        labels["outcome"]: child.get()
        for labels, child in fastpath_counter(registry).samples()
        if child.get()
    }
    assert sum(outcomes.values()) == 1, outcomes
    dom = dom_verdict(data)

    if not isinstance(got, LazyEnvelope):
        assert "fast" not in outcomes
        if isinstance(dom, Envelope):
            assert isinstance(got, Envelope)
            assert (got.version, got.headers, got.body) == (dom.version, dom.headers, dom.body)
        else:
            assert got is dom
        return

    assert outcomes == {"fast": 1}
    body = bytes(got.body_bytes)
    assert data.count(body) >= 1 and body in got.to_bytes()
    if not isinstance(dom, Envelope):
        # the fault is inside the Body, the one region the scanner skips
        # (its start tag is not inside: the scanner vouches for that)
        hollow = body[: START_TAG(body).start(3)] + b"/>"
        dom = dom_verdict(data.replace(body, hollow, 1))
        assert isinstance(dom, Envelope), (data, dom)
    else:
        assert got.body == dom.body
    assert (got.version, got.headers) == (dom.version, dom.headers)

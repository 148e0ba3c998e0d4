"""The one-pass writer against the two-pass writer it replaced.

``reference_writer`` is that writer, unchanged.  For any tree both give
the same string, or both raise the same exception: prefixes ``n0``,
``n1``… in first-use order, preferred-prefix collisions (both SOAP
versions want ``soapenv``, both WS-Addressing versions want ``wsa``),
``xml:`` attributes that need no declaration, ``xmlns`` attributes that
are never copied through, and an element in the ``xmlns`` namespace,
which is refused.
"""

from hypothesis import example, given, settings, strategies as st

from repro.xmlmini import Element, QName, serialize
from repro.xmlmini.names import XML_NS, XMLNS_NS
from tests.xmlmini import reference_writer

SOAP11 = "http://schemas.xmlsoap.org/soap/envelope/"
SOAP12 = "http://www.w3.org/2003/05/soap-envelope"
WSA04 = "http://schemas.xmlsoap.org/ws/2004/08/addressing"
WSA05 = "http://www.w3.org/2005/08/addressing"

_element_ns = st.sampled_from(
    [None, None, "urn:a", "urn:b", 'urn:"q"&<x>', SOAP11, SOAP12, WSA04, WSA05, XML_NS]
)
_attr_ns = st.sampled_from([None, None, "urn:a", "urn:c", SOAP12, WSA05, XML_NS, XMLNS_NS])
_local = st.sampled_from(["a", "Envelope", "To", "lang", "x-y", "_z.1", "é"])
_text = st.lists(
    st.sampled_from(["x", " ", "&", "<", ">", '"', "'", "\n", "\t", "\r", "é", "]]>"]),
    max_size=6,
).map("".join)


@st.composite
def trees(draw, depth=3):
    # an element in the xmlns namespace is rare, so most trees serialize
    ns = XMLNS_NS if draw(st.integers(0, 40)) == 0 else draw(_element_ns)
    el = Element(QName(ns, draw(_local)))
    for _ in range(draw(st.integers(0, 3))):
        el.attrs[QName(draw(_attr_ns), draw(_local))] = draw(_text)
    if depth > 0:
        for _ in range(draw(st.integers(0, 3))):
            el.children.append(draw(trees(depth=depth - 1)) if draw(st.booleans()) else draw(_text))
    return el


def outcome(write, tree, xml_decl):
    try:
        return write(tree, xml_decl=xml_decl)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def _collision():
    """Both SOAP and both WS-Addressing versions in one tree, and an
    ``xml:`` and an ``xmlns`` attribute on the root."""
    root = Element(QName(SOAP11, "Envelope"))
    root.attrs[QName(XML_NS, "lang")] = "en"
    root.attrs[QName(XMLNS_NS, "stale")] = "urn:old"
    for ns in (SOAP12, WSA04, WSA05, "urn:a"):
        root.children.append(Element(QName(ns, "a"), text="t"))
    return root


@given(trees(), st.booleans())
@example(_collision(), False)
@example(Element(QName(None, "r"), children=[Element(QName(XMLNS_NS, "bad"))]), True)
@settings(max_examples=400, deadline=None)
def test_the_one_pass_writer_is_the_two_pass_writer(tree, xml_decl):
    assert outcome(serialize, tree, xml_decl) == outcome(
        reference_writer.serialize, tree, xml_decl
    )


def test_the_collision_tree_reads_as_pinned():
    assert serialize(_collision()) == (
        '<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"'
        ' xmlns:n0="http://www.w3.org/2003/05/soap-envelope"'
        ' xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/08/addressing"'
        ' xmlns:n1="http://www.w3.org/2005/08/addressing" xmlns:n2="urn:a"'
        ' xml:lang="en"><n0:a>t</n0:a><wsa:a>t</wsa:a><n1:a>t</n1:a><n2:a>t</n2:a>'
        "</soapenv:Envelope>"
    )

"""The tokenizer under the parser and the scanner: what it accepts, where
it says a document is wrong, and that it stays linear.

``VERDICTS`` was recorded from the character-walking parser this tokenizer
replaced (commit 720ab9d): the documents of ``test_parser.py`` plus
multi-line faults of every kind the parser names.  A document is accepted
with the tree the old parser built, or refused with ``XmlParseError`` at
the same line and offset.
"""

import gc
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import XmlParseError
from repro.xmlmini import parse, serialize
from repro.xmlmini.names import is_ncname

#: (document, its serialized tree | (line, pos) of the XmlParseError)
VERDICTS = [
    ('<root/>', '<root/>'),
    ('<a>hello</a>', '<a>hello</a>'),
    ('<a><b><c/></b></a>', '<a><b><c/></b></a>'),
    ('<a x="1" y=\'2\'/>', '<a x="1" y="2"/>'),
    ('<a>pre<b/>post</a>', '<a>pre<b/>post</a>'),
    ('\ufeff<?xml version="1.0"?><a/>', '<a/>'),
    (b'<a>\xc3\xa9</a>', '<a>é</a>'),
    (b'<a>\xff\xfe</a>', (-1, -1)),
    ('<a><!-- note --><b/></a>', '<a><b/></a>'),
    ('<a><?php echo ?><b/></a>', '<a><b/></a>'),
    ('<a><![CDATA[<not> & parsed]]></a>', '<a>&lt;not&gt; &amp; parsed</a>'),
    ('<a  x="1"\n  y="2" ></a >', '<a x="1" y="2"/>'),
    ('<a>&lt;&gt;&amp;&apos;&quot;</a>', '<a>&lt;&gt;&amp;\'"</a>'),
    ('<a>&#65;&#x42;</a>', '<a>AB</a>'),
    ('<a>&nbsp;</a>', (1, 9)),
    ('<a>&#xD800;</a>', (1, 11)),
    ('<a x="&lt;&quot;"/>', '<a x="&lt;&quot;"/>'),
    ('<a xmlns="urn:x"><b/></a>', '<n0:a xmlns:n0="urn:x"><n0:b/></n0:a>'),
    ('<p:a xmlns:p="urn:x"/>', '<n0:a xmlns:n0="urn:x"/>'),
    ('<a xmlns="urn:x" k="v"/>', '<n0:a xmlns:n0="urn:x" k="v"/>'),
    ('<a xmlns:p="urn:x" p:k="v"/>', '<a xmlns:n0="urn:x" n0:k="v"/>'),
    ('<a xmlns="urn:outer"><b xmlns="urn:inner"/><c/></a>', '<n0:a xmlns:n0="urn:outer" xmlns:n1="urn:inner"><n1:b/><n0:c/></n0:a>'),
    ('<a xmlns="urn:x"><b xmlns=""/></a>', '<n0:a xmlns:n0="urn:x"><b/></n0:a>'),
    ('<p:a/>', (1, 4)),
    ('<a xml:lang="en"/>', '<a xml:lang="en"/>'),
    ('', (1, 0)),
    ('<a>', (1, 3)),
    ('<a></b>', (1, 6)),
    ('<a', (1, 2)),
    ('<a x=1/>', (1, 5)),
    ("<a x='1' x='2'/>", (1, 14)),
    ('text only', (1, 0)),
    ('<a/><b/>', (1, 4)),
    ('<a><b></a></b>', (1, 9)),
    ('<a x="<"/>', (1, 6)),
    ('<a>&unterminated', (1, 4)),
    ('<!-- -- --><a/>', (1, 11)),
    ('<1abc/>', (1, 5)),
    ('<a xmlns:p="urn:x" xmlns:q="urn:x" p:k="1" q:k="2"/>', (1, 50)),
    ('<!DOCTYPE a [<!ENTITY e "boom">]><a>&e;</a>', (1, 0)),
    ('<a>\n\n<bad', (3, 9)),
    ('<a/>trailing', (1, 4)),
    ('<a/><!-- bye --><?pi ?>', '<a/>'),
    ("<a>\n<b x='1'\n y=2/></a>", (3, 16)),
    ('<a>\n<b>\n</c></a>', (3, 11)),
    ('<a>\n&bogus;\n</a>', (2, 11)),
    ("<a x='1'y='2'/>", (1, 8)),
    ('<a>\n<!-- never closed', (2, 8)),
    ('<a>\n<![CDATA[ never closed', (2, 13)),
    ('<a>\n<?pi never closed', (2, 6)),
    ("<a\n x='1'\n x='2'/>", (3, 16)),
    ('<a>\n<p:b/></a>', (2, 8)),
    ("<a>\n<b xmlns:1p='u'/></a>", (2, 19)),
    ("<a>\n<b xmlns:p=''/></a>", (2, 17)),
    ('<a>\n</a\n x>', (3, 9)),
    ("<a>\n<b x='never closed></a>", (2, 23)),
    ('<a>&#0;</a>', (1, 7)),
    ('<a>&#xZZ;</a>', (1, 9)),
    ('<a>\n</>', (2, 6)),
    ('<a>\n< b/></a>', (2, 5)),
    ("<a>\n<b =''/></a>", (2, 7)),
    ('<a/>\n\n<!-- x -- y -->', (3, 21)),
    ('<a:b:c/>', (1, 6)),
    ('<:a/>', (1, 3)),
    ('<a>\n<b/ ></a>', (2, 6)),
    # the two start tags the envelope scanner splices through verbatim: it
    # must refuse there what this parser refuses (test_lazy_differential)
    ('<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/" q:x="1"><s:Body/></s:Envelope>', (1, 71)),
    ('<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/" x="1" x="2"><s:Body/></s:Envelope>', (1, 75)),
    ('<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/"><s:Body q:x="1"/></s:Envelope>', (1, 79)),
    ('<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/"><s:Body x="1" x="2"/></s:Envelope>', (1, 83)),
]


@pytest.mark.parametrize("document, verdict", VERDICTS)
def test_verdict_matches_the_recorded_parser(document, verdict):
    if isinstance(verdict, str):
        assert serialize(parse(document)) == verdict
        return
    with pytest.raises(XmlParseError) as caught:
        parse(document)
    assert (caught.value.line, caught.value.pos) == verdict


def test_offsets_count_utf8_bytes():
    """``pos`` indexes the document's UTF-8 form, whatever was handed in."""
    fault = "<a>é</b>"
    latin1 = b'<?xml version="1.0" encoding="latin1"?>'
    for document, before in (
        (fault, 0),
        (fault.encode("utf-8"), 0),
        (latin1 + fault.encode("latin-1"), len(latin1)),
    ):
        with pytest.raises(XmlParseError) as caught:
            parse(document)
        assert caught.value.pos == before + len("<a>é</b".encode("utf-8"))


# -- names --------------------------------------------------------------------

_NAME_START = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
_NAME_CHARS = _NAME_START + "0123456789.-"


def _is_ncname_by_character(name: str) -> bool:
    """The loop ``is_ncname`` was before it became one compiled match."""
    if not name:
        return False
    first = name[0]
    if not (first in _NAME_START or (not first.isascii() and first.isalpha())):
        return False
    for ch in name[1:]:
        if ch in _NAME_CHARS:
            continue
        if not ch.isascii() and (ch.isalpha() or ch.isdigit()):
            continue
        return False
    return True


@given(
    st.text(
        alphabet=st.one_of(
            st.sampled_from("aZ_09.-: \n½Ⅷ²٣éß"), st.characters(blacklist_categories=("Cs",))
        ),
        max_size=6,
    )
)
@settings(max_examples=500, deadline=None)
def test_is_ncname_accepts_what_the_character_loop_did(name):
    assert is_ncname(name) == _is_ncname_by_character(name)


# -- linear time ----------------------------------------------------------------

def _min_of_3(document: bytes) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        try:
            parse(document)
        except XmlParseError:
            pass
        best = min(best, time.perf_counter() - t0)
    return best


KIB = 1024


@pytest.mark.parametrize(
    "shape, n",
    [
        # Every allocation of this shape is one run-sized block.  Kept under
        # malloc's 128 KiB mmap threshold at 4n: above it the timing reads
        # whether the allocator serves the block from the heap or from
        # fresh, page-faulting pages — which depends on what earlier tests
        # freed, not on the tokenizer (1 MiB -> 4 MiB read 12-14x in full
        # runs and 4x alone).  A quadratic scan is 16x at any size.
        pytest.param(lambda n: b"<a>" + b"x" * n + b"</a>", 24 * KIB, id="one-text-run"),
        pytest.param(
            lambda n: b"<a>" + b"x<b/>" * (n // 5) + b"</a>", 64 * KIB, id="text-and-tags"
        ),
        pytest.param(
            lambda n: b"<a>" + b"&amp;" * (n // 5) + b"</a>", 256 * KIB, id="references"
        ),
        pytest.param(
            lambda n: b"<a" + b' x="1"' * (n // 6), 64 * KIB, id="attributes-never-closed"
        ),
    ],
)
def test_four_times_the_input_costs_under_eight_times_the_time(shape, n):
    """A tokenizer that re-searches to the end of the document after every
    delimiter, or backtracks over a tag, is quadratic on these."""
    gc.collect()
    gc.disable()  # a collection inside one timing and not the other is not the parser
    try:
        small = _min_of_3(shape(n))
        large = _min_of_3(shape(4 * n))
    finally:
        gc.enable()
    assert large < 8 * small, f"{small * 1e3:.2f} ms -> {large * 1e3:.2f} ms"

"""Tests for the from-scratch XML parser."""

import pytest

from repro.errors import XmlParseError
from repro.xmlmini import Element, QName, parse
from repro.xmlmini import parser


class TestBasicParsing:
    def test_empty_element(self):
        e = parse("<root/>")
        assert e.name == QName(None, "root")
        assert e.children == []

    def test_text_content(self):
        assert parse("<a>hello</a>").text == "hello"

    def test_nested_elements(self):
        e = parse("<a><b><c/></b></a>")
        assert e.require("b").require("c").name.local == "c"

    def test_attributes(self):
        e = parse('<a x="1" y=\'2\'/>')
        assert e.attrs[QName(None, "x")] == "1"
        assert e.attrs[QName(None, "y")] == "2"

    def test_mixed_content(self):
        e = parse("<a>pre<b/>post</a>")
        assert e.children[0] == "pre"
        assert isinstance(e.children[1], Element)
        assert e.children[2] == "post"

    def test_xml_declaration_and_bom(self):
        assert parse('﻿<?xml version="1.0"?><a/>').name.local == "a"

    def test_bytes_input_utf8(self):
        assert parse("<a>é</a>".encode("utf-8")).text == "é"

    def test_invalid_utf8_bytes(self):
        with pytest.raises(XmlParseError):
            parse(b"<a>\xff\xfe</a>")

    def test_comments_skipped(self):
        e = parse("<a><!-- note --><b/></a>")
        assert [c.name.local for c in e.element_children()] == ["b"]

    def test_processing_instruction_skipped(self):
        e = parse("<a><?php echo ?><b/></a>")
        assert e.find("b") is not None

    def test_cdata(self):
        assert parse("<a><![CDATA[<not> & parsed]]></a>").text == "<not> & parsed"

    def test_whitespace_in_tags(self):
        e = parse('<a  x="1"\n  y="2" ></a >')
        assert e.attrs[QName(None, "x")] == "1" and e.attrs[QName(None, "y")] == "2"


class TestEntities:
    def test_predefined(self):
        assert parse("<a>&lt;&gt;&amp;&apos;&quot;</a>").text == "<>&'\""

    def test_numeric_decimal_and_hex(self):
        assert parse("<a>&#65;&#x42;</a>").text == "AB"

    def test_unknown_entity(self):
        with pytest.raises(XmlParseError):
            parse("<a>&nbsp;</a>")

    def test_surrogate_reference_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<a>&#xD800;</a>")

    def test_entities_in_attributes(self):
        assert parse('<a x="&lt;&quot;"/>').attrs[QName(None, "x")] == '<"'


class TestNamespaces:
    def test_default_namespace(self):
        e = parse('<a xmlns="urn:x"><b/></a>')
        assert e.name == QName("urn:x", "a")
        assert e.find(QName("urn:x", "b")) is not None

    def test_prefixed_namespace(self):
        e = parse('<p:a xmlns:p="urn:x"/>')
        assert e.name == QName("urn:x", "a")

    def test_default_ns_does_not_apply_to_attributes(self):
        e = parse('<a xmlns="urn:x" k="v"/>')
        assert e.attrs.get(QName(None, "k")) == "v"

    def test_prefixed_attribute(self):
        e = parse('<a xmlns:p="urn:x" p:k="v"/>')
        assert e.attrs.get(QName("urn:x", "k")) == "v"

    def test_scope_shadowing(self):
        e = parse('<a xmlns="urn:outer"><b xmlns="urn:inner"/><c/></a>')
        children = list(e.element_children())
        assert children[0].name.ns == "urn:inner"
        assert children[1].name.ns == "urn:outer"

    def test_default_ns_undeclaration(self):
        e = parse('<a xmlns="urn:x"><b xmlns=""/></a>')
        assert next(e.element_children()).name.ns is None

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<p:a/>")

    def test_xml_prefix_implicit(self):
        e = parse('<a xml:lang="en"/>')
        assert e.attrs.get(QName("http://www.w3.org/XML/1998/namespace", "lang")) == "en"


class TestMalformed:
    @pytest.mark.parametrize(
        "doc",
        [
            "",
            "<a>",
            "<a></b>",
            "<a",
            "<a x=1/>",
            "<a x='1' x='2'/>",
            "text only",
            "<a/><b/>",
            "<a><b></a></b>",
            '<a x="<"/>',
            "<a>&unterminated",
            "<!-- -- --><a/>",
            "<1abc/>",
        ],
    )
    def test_rejected(self, doc):
        with pytest.raises(XmlParseError):
            parse(doc)

    def test_duplicate_namespaced_attribute(self):
        with pytest.raises(XmlParseError):
            parse('<a xmlns:p="urn:x" xmlns:q="urn:x" p:k="1" q:k="2"/>')

    def test_doctype_rejected(self):
        with pytest.raises(XmlParseError):
            parse('<!DOCTYPE a [<!ENTITY e "boom">]><a>&e;</a>')

    def test_error_reports_line(self):
        try:
            parse("<a>\n\n<bad")
        except XmlParseError as exc:
            assert exc.line == 3
        else:  # pragma: no cover
            pytest.fail("expected XmlParseError")

    def test_content_after_root(self):
        with pytest.raises(XmlParseError):
            parse("<a/>trailing")

    def test_comment_and_pi_after_root_allowed(self):
        assert parse("<a/><!-- bye --><?pi ?>").name.local == "a"


class TestDeclaredEncoding:
    DECL = '<?xml version="1.0" encoding="%s"?>'

    @pytest.mark.parametrize("label", ["ISO-8859-1", "iso8859-1", "Latin-1", "latin1", "L1"])
    def test_latin1_bytes_are_read_as_latin1(self, label):
        doc = (self.DECL % label + "<a b='é'>café</a>").encode("latin-1")
        root = parse(doc)
        assert root.text == "café" and root.attrs[QName(None, "b")] == "é"

    def test_the_label_decides_not_the_bytes(self):
        doc = (self.DECL % "ISO-8859-1" + "<a>é</a>").encode("utf-8")
        assert parse(doc).text == "Ã©"

    @pytest.mark.parametrize("label", ["UTF-8", "utf8", "US-ASCII", "ascii", "latin1"])
    def test_ascii_bytes_read_the_same_under_every_listed_label(self, label):
        assert parse((self.DECL % label + "<a>plain</a>").encode()).text == "plain"

    def test_us_ascii_refuses_a_high_byte(self):
        with pytest.raises(XmlParseError, match="US-ASCII"):
            parse((self.DECL % "US-ASCII" + "<a>é</a>").encode("latin-1"))

    @pytest.mark.parametrize("label", ["utf-16", "cp1252", "Shift_JIS", ""])
    def test_an_unlisted_encoding_is_refused_by_name(self, label):
        with pytest.raises(XmlParseError, match=repr(label.lower())):
            parse((self.DECL % label + "<a/>").encode())

    def test_single_quotes_and_a_bom(self):
        doc = "<?xml version='1.0' encoding = 'utf-8' ?><a>é</a>".encode()
        assert parse(b"\xef\xbb\xbf" + doc).text == "é"

    def test_a_str_is_already_decoded(self):
        assert parse(self.DECL % "utf-16" + "<a>é</a>").text == "é"


class TestSpellingCache:
    """The parser checks a raw name's spelling once per process and keeps
    its parts; what the prefix means is still looked up at every use."""

    @pytest.fixture(autouse=True)
    def cold(self):
        parser._SPELLINGS.clear()
        yield
        parser._SPELLINGS.clear()

    def test_one_spelling_under_two_bindings_is_two_names(self):
        e = parse('<r xmlns:p="urn:one"><p:a/><x xmlns:p="urn:two"><p:a/></x></r>')
        first, inner = e.element_children()
        assert first.name == QName("urn:one", "a")
        assert inner.find(QName("urn:two", "a")) is not None
        assert parse('<p:a xmlns:p="urn:three"/>').name == QName("urn:three", "a")
        assert b"p:a" in parser._SPELLINGS

    def test_an_undeclared_prefix_fails_alike_cold_and_cached(self):
        doc = '<r>\n  <p:a/></r>'

        def failure():
            with pytest.raises(XmlParseError) as caught:
                parse(doc)
            return str(caught.value), caught.value.pos, caught.value.line

        cold = failure()
        assert parser._SPELLINGS[b"p:a"] == ("p", "a")  # a good spelling, kept
        assert failure() == cold
        parse('<p:a xmlns:p="urn:x"/>')
        assert failure() == cold
        assert cold[1:] == (10, 2) and "undeclared namespace prefix 'p'" in cold[0]

    @pytest.mark.parametrize("attribute_first", [True, False])
    def test_an_unprefixed_name_is_no_namespace_on_an_attribute_only(self, attribute_first):
        attribute, element = '<r xmlns="urn:d" a="1"/>', '<a xmlns="urn:d"/>'
        for doc in (attribute, element) if attribute_first else (element, attribute):
            parse(doc)
        assert parse(attribute).attrs.get(QName(None, "a")) == "1"
        assert parse(element).name == QName("urn:d", "a")

    def test_unique_names_past_the_bound_do_not_grow_it(self):
        names = "".join(f"<n{i}/>" for i in range(parser.SPELLINGS_MAX + 100))
        assert len(parse(f"<r>{names}</r>").children) == parser.SPELLINGS_MAX + 100
        assert 0 < len(parser._SPELLINGS) <= parser.SPELLINGS_MAX
        long_name = "n" * (parser.SPELLING_MAX_BYTES + 1)
        parse(f"<{long_name}/>")
        assert long_name.encode() not in parser._SPELLINGS


"""XML parser unit tests: well-formedness, entities, errors."""

import pytest

from repro.errors import XmlParseError
from repro.xmldb.node import NodeKind
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import serialize


class TestBasics:
    def test_minimal(self):
        doc = parse_document("<a/>")
        assert doc.root.kind == NodeKind.DOCUMENT
        assert doc.node(1).name == "a"

    def test_nested_elements(self):
        doc = parse_document("<a><b><c/></b><d/></a>")
        names = [doc.names[p] for p in range(len(doc)) if doc.names[p]]
        assert names == ["a", "b", "c", "d"]

    def test_attributes_both_quotes(self):
        doc = parse_document("""<a x="1" y='2'/>""")
        attrs = {doc.names[p]: doc.values[p] for p in range(len(doc))
                 if doc.kinds[p] == NodeKind.ATTRIBUTE}
        assert attrs == {"x": "1", "y": "2"}

    def test_text_content(self):
        doc = parse_document("<a>hello <b>world</b>!</a>")
        assert doc.node(1).string_value() == "hello world!"

    def test_xml_declaration_and_doctype_skipped(self):
        doc = parse_document(
            '<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a ANY>]><a/>')
        assert doc.node(1).name == "a"

    def test_namespaced_names_kept_verbatim(self):
        doc = parse_document('<x:a xmlns:x="urn:x"><x:b/></x:a>')
        assert doc.names[1] == "x:a"


class TestEntities:
    def test_predefined(self):
        doc = parse_document("<a>&lt;&gt;&amp;&quot;&apos;</a>")
        assert doc.node(1).string_value() == "<>&\"'"

    def test_numeric(self):
        doc = parse_document("<a>&#65;&#x42;</a>")
        assert doc.node(1).string_value() == "AB"

    def test_in_attribute(self):
        doc = parse_document('<a x="a&amp;b"/>')
        assert doc.values[2] == "a&b"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlParseError):
            parse_document("<a>&nope;</a>")


class TestSpecialConstructs:
    def test_comment(self):
        doc = parse_document("<a><!--note--></a>")
        assert doc.kinds[2] == NodeKind.COMMENT
        assert doc.values[2] == "note"

    def test_processing_instruction(self):
        doc = parse_document("<a><?target data here?></a>")
        assert doc.kinds[2] == NodeKind.PROCESSING_INSTRUCTION
        assert doc.names[2] == "target"

    def test_cdata(self):
        doc = parse_document("<a><![CDATA[<raw> & stuff]]></a>")
        assert doc.node(1).string_value() == "<raw> & stuff"

    def test_cdata_merges_with_text(self):
        doc = parse_document("<a>x<![CDATA[y]]>z</a>")
        assert doc.node(1).string_value() == "xyz"


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "<a>",                      # unterminated
        "<a></b>",                  # mismatched tags
        "<a x=1/>",                 # unquoted attribute
        '<a x="1" x="2"/>',         # duplicate attribute
        "<a/><b/>",                 # two roots
        "",                         # empty input
        "just text",                # no element
        "<a><!--never closed</a>",  # unterminated comment
    ])
    def test_rejected(self, bad):
        with pytest.raises(XmlParseError):
            parse_document(bad)

    def test_error_carries_offset(self):
        with pytest.raises(XmlParseError) as info:
            parse_document("<a><b></c></a>")
        assert info.value.offset > 0


class TestScannerRegressions:
    """Plain cases for what the differential fuzz (``test_parser_
    differential.py`` / ``test_parser_malformed.py``, and CI's ``fuzz``
    job) has found, plus the offsets the tokenizer must keep."""

    def test_attribute_name_cannot_start_inside_the_element_name(self):
        # Found while writing the tokenizer: the tag regex backtracked
        # the element name to "a" and read x="1" as its attribute.
        with pytest.raises(XmlParseError) as info:
            parse_document('<ax="1"/>')
        assert (str(info.value), info.value.offset) == \
            ("expected a name at offset 3", 3)

    def test_no_whitespace_needed_after_a_closing_quote(self):
        doc = parse_document("""<a x="1"y='2'z="3"/>""")
        assert list(doc.names[2:]) == ["x", "y", "z"]
        assert list(doc.values[2:]) == ["1", "2", "3"]

    def test_whitespace_and_newlines_inside_tags(self):
        doc = parse_document('<a\n  x = "1"\r\n\ty\t=\n\'2\'  ><b \n/></a\n >')
        assert list(doc.names) == ["", "a", "x", "y", "b"]
        assert list(doc.sizes) == [4, 3, 0, 0, 0]
        assert list(doc.levels) == [0, 1, 2, 2, 2]
        assert list(doc.parents) == [-1, 0, 1, 1, 1]

    @pytest.mark.parametrize("bad, message, offset", [
        ('<a x="1" x="2" y="&bad;"/>', "duplicate attribute 'x'", 14),
        ('<a x="&bad;" x="2"/>', "unknown entity &bad;", 6),
        ("< a/>", "expected a name", 1),
        ("<a><? x?></a>", "expected a name", 5),
        ("<a><!-x--></a>", "expected a name", 4),
        ("<a></a", "expected '>'", 6),
        ("<a></b", "mismatched end tag </b> for <a>", 6),
        ("<a x/>", "expected '='", 4),
        ("<a x= y/>", "expected quoted attribute value", 6),
        ('<a x="y/>', "unterminated attribute value", 6),
        ("<a/ >", "expected a name", 2),
        ("<a><b>text", "unterminated element <b>", 6),
        ("<a><![CDATA[x]]</a>", "unterminated CDATA section", 12),
        ("<a><?pi never closed</a>", "unterminated processing instruction", 7),
        ("<!DOCTYPE a [<a/>", "unterminated DOCTYPE", 17),
        ("<?xml version='1.0'><a/>", "unterminated XML declaration", 0),
        ("<a/>trailing", "content after root element", 4),
    ])
    def test_first_offending_offset(self, bad, message, offset):
        with pytest.raises(XmlParseError) as info:
            parse_document(bad)
        assert str(info.value) == f"{message} at offset {offset}"
        assert info.value.offset == offset

    def test_names_are_interned(self):
        from sys import intern

        doc = parse_document('<item id="1"><?target x?><item/></item>')
        assert all(name is intern(name) for name in doc.names)
        assert doc.names[1] is doc.names[4]


class TestFragment:
    def test_fragment_root_is_element(self):
        doc = parse_fragment("<a><b/></a>")
        assert doc.is_fragment
        assert doc.root.name == "a"

    def test_fragment_rejects_document_extras(self):
        with pytest.raises(XmlParseError):
            parse_fragment("<a/><b/>")


class TestRoundTrip:
    @pytest.mark.parametrize("xml", [
        "<a/>",
        '<a x="1"><b>t</b></a>',
        "<a>one<b/>two</a>",
        '<a note="&lt;&amp;&quot;">&amp;</a>',
        "<a><!--c--><?pi d?></a>",
    ])
    def test_parse_serialize_identity(self, xml):
        assert serialize(parse_document(xml)) == xml

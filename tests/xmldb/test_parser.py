"""XML parser unit tests: well-formedness, entities, errors."""

import gc
from pyexpat import ExpatError, XMLParserType

import pytest

from repro.errors import ReproError, XmlParseError
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
    job) has found, plus the offsets the scanner must keep."""

    def test_attribute_name_cannot_start_inside_the_element_name(self):
        # Found while writing the regex tokenizer: its tag regex
        # backtracked the element name to "a" and read x="1" as its
        # attribute.
        with pytest.raises(XmlParseError) as info:
            parse_document('<ax="1"/>')
        assert info.value.offset == 3

    def test_whitespace_and_newlines_inside_tags(self):
        doc = parse_document('<a\n  x = "1"\r\n\ty\t=\n\'2\'  ><b \n/></a\n >')
        assert list(doc.names) == ["", "a", "x", "y", "b"]
        assert list(doc.sizes) == [4, 3, 0, 0, 0]
        assert list(doc.levels) == [0, 1, 2, 2, 2]
        assert list(doc.parents) == [-1, 0, 1, 1, 1]

    # Messages are expat's and offsets where expat stops, as ``str``
    # indices. Re-pinned from the regex scanner's, which named the
    # offending character by its own reading (e.g. "expected '='").
    @pytest.mark.parametrize("bad, message, offset", [
        ('<a x="1" x="2" y="&bad;"/>', "duplicate attribute", 9),
        ('<a x="&bad;" x="2"/>', "unknown entity &bad;", 6),
        ("< a/>", "not well-formed (invalid token)", 1),
        ("<a><? x?></a>", "not well-formed (invalid token)", 5),
        ("<a><!-x--></a>", "not well-formed (invalid token)", 6),
        ("<a></a", "unclosed token", 3),
        ("<a><b></c></a>", "mismatched tag", 8),
        ("<a x/>", "not well-formed (invalid token)", 4),
        ("<a x= y/>", "not well-formed (invalid token)", 6),
        ('<a x="y/>', "unclosed token", 0),
        ("<a/ >", "not well-formed (invalid token)", 3),
        ("<a><b>text", "no element found", 10),
        ("<a><![CDATA[x]]</a>", "unclosed CDATA section", 19),
        ("<a><?pi never closed</a>", "unclosed token", 3),
        ("<!DOCTYPE a [<a/>", "unterminated DOCTYPE", 17),
        ("<?xml version='1.0'><a/>", "unclosed token", 0),
        ("<a/>trailing", "junk after document element", 4),
        ("", "no element found", 0),
    ])
    def test_first_offending_offset(self, bad, message, offset):
        with pytest.raises(XmlParseError) as info:
            parse_document(bad)
        assert str(info.value) == f"{message} at offset {offset}"
        assert info.value.offset == offset

    @pytest.mark.parametrize("before", ["e", "é", "€", "😀", "é€😀"])
    def test_offset_is_a_str_index_after_non_ascii_text(self, before):
        """Expat counts UTF-8 bytes; the offset counts characters, so
        it lands on the same character whatever precedes it."""
        for bad, at in ((f"<a>{before}<b></a>", "a>"),
                        (f"<a>{before}&bogus;</a>", "&bogus;"),
                        (f"<a>{before}\x01</a>", "\x01"),
                        (f"<a x='{before}' y='&#xZZ;'/>", "&#xZZ;")):
            with pytest.raises(XmlParseError) as info:
                parse_document(bad)
            assert bad[info.value.offset:].startswith(at), bad

    @pytest.mark.parametrize("bad", [
        "<a>", "<a x=1/>", "<1st/>", "<a>&#0;</a>", "<a>\ud800</a>",
        "<a>&bogus;</a>", "<a>\x00</a>", "<a><?xml x?></a>",
    ])
    def test_expat_errors_are_typed(self, bad):
        for parse in (parse_document, parse_fragment):
            with pytest.raises(XmlParseError) as info:
                parse(bad)
            assert not isinstance(info.value, ExpatError)
            assert isinstance(info.value, ReproError)

    def test_names_are_interned(self):
        from sys import intern

        doc = parse_document('<item id="1"><?target x?><item/></item>')
        assert all(name is intern(name) for name in doc.names)
        assert doc.names[1] is doc.names[4]

    def test_a_parse_leaves_no_parser_behind(self):
        """Freed when the parse returns, not by the cyclic collector: a
        cycle through the handlers would keep every parse's scan lists
        alive until a collection."""
        def parsers() -> int:
            return sum(isinstance(o, XMLParserType) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = parsers()
            parse_document('<!DOCTYPE a><a x="1"><b>t</b></a>')
            parse_fragment("<a><!--c--><?p x?></a>")
            assert parsers() == before
        finally:
            gc.enable()

    def test_text_split_across_buffers_and_cdata_is_one_node(self):
        text = "x" * 20_000 + "&amp;" + "<![CDATA[y]]>" + "z" * 9_000
        doc = parse_fragment(f"<a>{text}</a>")
        assert list(doc.kinds) == [NodeKind.ELEMENT, NodeKind.TEXT]
        assert doc.values[1] == "x" * 20_000 + "&y" + "z" * 9_000


class TestXml10:
    """What XML 1.0 requires and the regex scanner let through: settled
    on purpose with the move onto expat, one plain case each (the oracle,
    ``tests/oracle/xml_scanner.py``, follows the same rules)."""

    @pytest.mark.parametrize("bad", [
        "<1st/>", "<-a/>", "<.a/>", '<a 1x="1"/>', "<a><?1pi?></a>",
    ])
    def test_names_must_start_with_a_letter_underscore_or_colon(self, bad):
        with pytest.raises(XmlParseError):
            parse_document(bad)

    @pytest.mark.parametrize("bad", [
        "<a>&#0;</a>", "<a>&#x1;</a>", '<a x="&#8;"/>', "<a>&#xFFFE;</a>",
        "<a>&#xD800;</a>", "<a>\x00</a>", "<a>\x01</a>", '<a x="\x1f"/>',
        "<a><!--\x0b--></a>", "<a>\ud800</a>",
    ])
    def test_no_character_outside_the_char_production(self, bad):
        with pytest.raises(XmlParseError):
            parse_document(bad)

    @pytest.mark.parametrize("bad", [
        "<a>&#X43;</a>",             # only a lowercase x
        '<a x="1"y="2"/>',           # whitespace between attributes
        '<a x="<"/>',                # no < in an attribute value
        "<a>x]]>y</a>",              # no ]]> in text
        "<a><!-- a -- b --></a>",    # no -- in a comment
        "<a><!-- a ---></a>",        # nor - at its end
        " <?xml version='1.0'?><a/>",  # the declaration comes first
        "<a><?xml x?></a>",          # and is no PI
        "<a><?XmL x?></a>",
    ])
    def test_other_well_formedness_rules(self, bad):
        with pytest.raises(XmlParseError):
            parse_document(bad)

    def test_attribute_values_and_line_ends_are_normalized(self):
        doc = parse_fragment('<a x="1\t2\n3\r\n4\r5">x\r\ny\rz</a>')
        assert doc.values[1] == "1 2 3 4 5"
        assert doc.values[2] == "x\ny\nz"

    def test_character_references_are_not_normalized(self):
        doc = parse_fragment('<a x="&#9;&#10;&#13;">&#13;&#10;</a>')
        assert doc.values[1] == "\t\n\r"
        assert doc.values[2] == "\r\n"


class TestDoctype:
    """A DOCTYPE is skipped whole, before expat reads it: nothing it
    declares is ever expanded, nothing it names is ever fetched."""

    @pytest.mark.parametrize("text, entity", [
        ('<!DOCTYPE r [<!ENTITY a "x">]><r>&a;</r>', "&a;"),
        ('<!DOCTYPE r [<!ENTITY a "x">]><r y="&a;"/>', "&a;"),
        ('<!DOCTYPE r SYSTEM "r.dtd"><r>&foo;</r>', "&foo;"),
        ('<!DOCTYPE r SYSTEM "r.dtd"><r y="&foo;"/>', "&foo;"),
    ])
    def test_declared_entities_stay_unknown(self, text, entity):
        with pytest.raises(XmlParseError) as info:
            parse_document(text)
        assert str(info.value).startswith(f"unknown entity {entity}")
        assert text[info.value.offset:].startswith(entity)

    def test_billion_laughs_fails_fast(self):
        """The error is at the first ``&lol9;`` reference itself: the
        scan stopped there, before expanding anything."""
        lol = ['<!ENTITY lol0 "lol">'] + [
            f'<!ENTITY lol{n} "{f"&lol{n - 1};" * 10}">' for n in range(1, 10)]
        for body in ("&lol9;", '<b x="&lol9;"/>'):
            text = f"<!DOCTYPE r [{''.join(lol)}]><r>{body}</r>"
            with pytest.raises(XmlParseError,
                               match="unknown entity &lol9;") as info:
                parse_document(text)
            assert info.value.offset == text.index("&lol9;")

    def test_external_entities_are_never_resolved(self, tmp_path):
        secret = tmp_path / "secret.txt"
        secret.write_text("secret")
        uri = secret.as_uri()
        for text in (f'<!DOCTYPE r [<!ENTITY e SYSTEM "{uri}">]><r>&e;</r>',
                     f'<!DOCTYPE r SYSTEM "{uri}"><r/>',
                     f'<!DOCTYPE r [<!ENTITY % p SYSTEM "{uri}"> %p;]><r/>'):
            try:
                doc = parse_document(text)
            except XmlParseError as err:
                assert "secret" not in str(err)
            else:
                assert "secret" not in "".join(doc.values)

    @pytest.mark.parametrize("text", [
        '<?xml version="1.0"?><a/>', "<!DOCTYPE a><a/>",
        '<!DOCTYPE a [<!ENTITY b "c">]><a/>',
    ])
    def test_a_fragment_has_no_prolog(self, text):
        assert len(parse_document(text)) == 2
        with pytest.raises(XmlParseError):
            parse_fragment(text)


class TestFragment:
    def test_fragment_root_is_element(self):
        doc = parse_fragment("<a><b/></a>")
        assert doc.root.kind == NodeKind.ELEMENT
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

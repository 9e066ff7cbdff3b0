"""Serializer unit tests: escaping, node kinds, attribute handling."""

import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.errors import XmlParseError
from repro.system.federation import Peer
from repro.xmark import generate_pair
from repro.xmldb import axes, serializer
from repro.xmldb.columns import ColumnSet
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.node import NodeKind
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import (
    cached_serialization, escape_attribute, escape_text, serialize,
    serialize_node, serialized_byte_length, subtree_spans,
)
from tests.conftest import fuzz_settings
from tests.oracle import COLUMNS
from tests.oracle.xquery_reference_walker import axis_step
from tests.xmldb.test_parser_differential import documents, fragments


class TestEscaping:
    def test_text_escapes(self):
        assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_attribute_escapes_quotes(self):
        assert escape_attribute('say "hi" & <go>') == \
            "say &quot;hi&quot; &amp; <go>".replace("<go>", "&lt;go>")

    def test_text_keeps_quotes(self):
        assert escape_text('"quoted"') == '"quoted"'

    def test_line_ends_and_tabs_are_references_where_parsing_folds_them(self):
        assert escape_text("a\tb\nc\r\nd") == "a\tb\nc&#13;\nd"
        assert escape_attribute("a\tb\nc\r\nd") == "a&#9;b&#10;c&#13;&#10;d"


# What XML 1.0 normalizes on reading, among what must be escaped.
_values = st.text(alphabet=st.sampled_from("a \t\n\r&<>\"']é"),
                  min_size=1, max_size=8)


@st.composite
def _trees(draw):
    builder = DocumentBuilder("r.xml")
    builder.start_document()

    def element(level: int) -> None:
        builder.start_element(draw(st.sampled_from(["a", "b", "x:y"])))
        for index in range(draw(st.integers(0, 2))):
            builder.attribute(f"at{index}", draw(_values))
        for _ in range(draw(st.integers(0, 3 if level < 3 else 0))):
            if draw(st.booleans()):
                element(level + 1)
            else:
                builder.text(draw(_values))
        builder.end_element()

    element(0)
    builder.end_document()
    return builder.finish()


class TestRoundTrip:
    """``parse_fragment(serialize_node(n))`` is ``n``, column for
    column, whatever the values hold: the escapes cover what XML 1.0
    normalizes on reading (``\r`` in text; tab, line feed and carriage
    return in attribute values)."""

    @given(_trees(), st.integers(0, 1_000))
    @fuzz_settings(150)
    def test_parse_of_serialize_is_the_node(self, doc, choice):
        elements = [pre for pre in range(len(doc))
                    if doc.kinds[pre] == NodeKind.ELEMENT]
        pre = elements[choice % len(elements)]
        node = doc.node(pre)
        reparsed = parse_fragment(serialize_node(node))
        rows = slice(pre, pre + doc.sizes[pre] + 1)
        level = doc.levels[pre]
        expected = [list(getattr(doc, column)[rows]) for column in COLUMNS]
        expected[4] = [depth - level for depth in expected[4]]
        expected[5] = [-1] + [parent - pre for parent in expected[5][1:]]
        assert [list(getattr(reparsed, column)) for column in COLUMNS] \
            == expected


class TestSerialization:
    def test_empty_element_self_closes(self):
        assert serialize(parse_document("<a/>")) == "<a/>"

    def test_attributes_in_order(self):
        assert serialize(parse_document('<a b="1" c="2"/>')) == \
            '<a b="1" c="2"/>'

    def test_mixed_content(self):
        xml = "<a>one<b>two</b>three</a>"
        assert serialize(parse_document(xml)) == xml

    def test_comment_and_pi(self):
        xml = "<a><!--note--><?pi data?></a>"
        assert serialize(parse_document(xml)) == xml

    def test_serialize_subtree(self):
        doc = parse_document("<a><b><c/></b></a>")
        b = next(n for n in doc.nodes() if n.name == "b")
        assert serialize_node(b) == "<b><c/></b>"

    def test_serialize_text_node(self):
        doc = parse_document("<a>x &amp; y</a>")
        text = next(axis_step(doc.node(1), "child", "text()"))
        assert serialize_node(text) == "x &amp; y"

    def test_serialize_attribute_gives_value(self):
        doc = parse_document('<a x="v"/>')
        attr = next(axes.attribute(doc.node(1)))
        assert serialize_node(attr) == "v"

    def test_nesting_is_not_bounded_by_the_recursion_limit(self):
        depth = 20_000
        text = "<a>" * (depth - 1) + "<a/>" + "</a>" * (depth - 1)
        doc = parse_fragment(text)
        assert serialize_node(doc.node(1)) == text[3:-4]  # span-less
        assert serialize(doc) == text


class TestOneEmitter:
    """``serialize`` (whole document, spans recorded) and
    ``serialize_node`` on a document with no full text (one subtree, no
    spans) are the same loop: every node's span in the full text is
    what the span-less mode emits for that node alone."""

    @given(documents().map(parse_document)
           | fragments().map(parse_fragment))
    @fuzz_settings(150)
    def test_every_span_is_the_subtree_serialised_alone(self, doc):
        full = serialize(doc)
        starts, ends = subtree_spans(doc)
        # Same columns, no memoized text: every pre > 0 is emitted
        # afresh from its own rows.
        bare = Document(doc.uri, doc.columns)
        for pre in range(len(doc) - 1, -1, -1):
            assert full[starts[pre]:ends[pre]] == \
                serialize_node(bare.node(pre))
        assert subtree_spans(bare) == (starts, ends)

    def test_lone_attribute_and_text_documents(self):
        """What a by-value attribute / text copy is shredded into."""
        for kind, value, text in (
                (NodeKind.ATTRIBUTE, 'a"<&>', "a&quot;&lt;&amp;>"),
                (NodeKind.TEXT, 'a"<&>', 'a"&lt;&amp;&gt;')):
            doc = Document("m", ColumnSet([kind], ["n"], [value], [0], [0],
                                          [-1]))
            assert serialize(doc) == serialize_node(doc.root) == text
            assert subtree_spans(doc) == ([0], [len(text)])


#: Spellings a canonical text must not gain, and some it may.
_EDITS = [" ", "\n", "\r", "'", '"', "=", "/", ">", "<b/>", "</b>",
          "<b></b>", "x", "<!--c-->", "<?p x?>", "<![CDATA[z]]>", "&amp;",
          "&#38;", "&gt;", "&quot;", "&#10;", "&#xA;", "é"]


def _seeded(doc: Document, text: str) -> bool:
    """Whether the first serialisation read of ``doc`` adopted ``text``,
    the text it was stored from (later reads answer the same)."""
    return serialize(doc) is text


def _adoptable(doc: Document) -> bool:
    """Adopted when canonical: no PI and no comment holding ``<``."""
    return NodeKind.PROCESSING_INSTRUCTION not in doc.kinds and not any(
        kind == NodeKind.COMMENT and "<" in value
        for kind, value in zip(doc.kinds, doc.values))


class TestAdoptedSerialization:
    """A stored text that is exactly what the serializer makes of its
    document is adopted as that serialisation: ``Peer.store`` leaves it
    on the document, the first serialisation read seeds the memo with
    what a from-scratch emit would record, and any other spelling takes
    the lazy path."""

    def test_the_first_read_adopts_what_the_store_left(self, monkeypatch):
        """``Peer.store`` only parses: the canonical check and the span
        layout run at the first ``Peer.serialized``, once, which
        returns the stored string itself with ``_emit``'s spans."""
        checks = []
        canonical, layout = serializer._NONCANONICAL, serializer._layout
        monkeypatch.setattr(serializer, "_NONCANONICAL", SimpleNamespace(
            search=lambda text: (checks.append("search"),
                                 canonical.search(text))[1]))
        monkeypatch.setattr(serializer, "_layout", lambda doc, text: (
            checks.append("layout"), layout(doc, text))[1])
        text = serialize(generate_pair(0.002)[0])
        peer = Peer("p").store("d.xml", text)
        stored = peer.document("d.xml")
        assert checks == []
        assert cached_serialization(stored) is None
        assert peer.serialized("d.xml") is text
        assert checks == ["search", "layout"]
        starts, ends = [0] * len(stored), [0] * len(stored)
        assert serializer._emit(stored, 0, len(stored) - 1,
                                starts, ends) == text
        assert subtree_spans(stored) == (starts, ends)
        assert peer.serialized("d.xml") is text
        assert checks == ["search", "layout"]

    def test_racing_first_reads_adopt_once(self, monkeypatch):
        """Threads racing a store's first ``Peer.serialized`` all get
        the stored text, laid out once per store."""
        layouts = []
        layout = serializer._layout
        monkeypatch.setattr(serializer, "_layout", lambda doc, text: (
            layouts.append(1), layout(doc, text))[1])
        text = serialize(generate_pair(0.002)[0])
        answers, errors = [], []

        def read(peer, start):
            try:
                start.wait(timeout=10)
                answers.append(peer.serialized("d.xml"))
            except Exception as error:    # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(5):
                peer = Peer("p").store("d.xml", text)
                start = threading.Barrier(8)
                threads = [threading.Thread(target=read, args=(peer, start))
                           for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(answers) == 40
        assert all(answer is text for answer in answers)
        assert len(layouts) == 5

    @given(_trees() | documents().map(parse_document))
    @fuzz_settings(150)
    def test_a_stored_canonical_text_seeds_the_emitters_memo(self, doc):
        text = serialize(doc)
        stored = Peer("p").store("d.xml", text).document("d.xml")
        assert _seeded(stored, text) == _adoptable(stored)
        bare = Document(stored.uri, stored.columns)  # nothing memoized
        assert serialize(stored) == serialize(bare) == text
        assert subtree_spans(stored) == subtree_spans(bare)
        assert serialized_byte_length(stored) == \
            serialized_byte_length(bare)
        fresh = Document(stored.uri, stored.columns)  # span-less emits
        for pre in range(len(stored)):
            assert serialize_node(stored.node(pre)) == \
                serialize_node(fresh.node(pre))

    @given(_trees() | documents().map(parse_document),
           st.lists(st.tuples(st.floats(0, 1), st.sampled_from(_EDITS)),
                    min_size=1, max_size=3))
    @fuzz_settings(150)
    def test_an_edited_text_is_adopted_exactly_when_canonical(self, doc,
                                                              edits):
        """A few characters inserted into a canonical text: whatever
        still parses is adopted if and only if it is still canonical,
        and then with exact spans."""
        text = serialize(doc)
        for where, piece in edits:
            at = int(where * len(text))
            text = text[:at] + piece + text[at:]
        try:
            expected = parse_document(text)
        except XmlParseError:
            return
        stored = Peer("p").store("d.xml", text).document("d.xml")
        canonical = serialize(expected) == text
        assert _seeded(stored, text) == (canonical and _adoptable(stored))
        if _seeded(stored, text):
            assert subtree_spans(stored) == subtree_spans(expected)

    @pytest.mark.parametrize("text", [
        "<a x='1'/>",                       # single-quoted attribute
        "<a></a>", "<r><a></a>x</r>",       # empty element, end tag
        '<a x="1" />', '<a  x="1"/>', "<a></a >",  # space inside a tag
        "<a>&#65;</a>", "<a>&#x26;</a>",    # character references
        "<a>&#38;</a>", '<a x="&#xA;"/>',   # ... of the escapes' length
        '<a x="&gt;"/>', "<a>&quot;</a>",   # needless escapes
        "<a>1 > 0</a>",                     # raw > in text
        '<a x="1\n2"/>', '<a x="1\t2"/>',   # raw whitespace in a value
        "<a><![CDATA[x]]></a>",             # CDATA section
        "<a>x\r\ny</a>", "<a>x\ry</a>",     # raw carriage returns
        '<?xml version="1.0"?><a/>',        # XML declaration
        "<!DOCTYPE a><a/>",                 # DOCTYPE
        "<!--c--><a/>", "<a/><!--c-->",     # comment outside the root
        " <a/>", "<a/>\n",                  # space outside the root
        "<a><?pi  x?></a>",                 # PI with extra whitespace
        "<a>é&#233;</a>",                   # non-ASCII, and a reference
    ])
    def test_other_spellings_are_serialised_afresh(self, text):
        stored = Peer("p").store("d.xml", text).document("d.xml")
        assert not _seeded(stored, text)
        assert serialize(stored) == serialize(parse_document(text)) != text

    @pytest.mark.parametrize("text", ["<a><?pi x?></a>",
                                      "<a><!--<b/>--></a>"])
    def test_a_pi_or_a_comment_holding_lt_is_never_adopted(self, text):
        stored = Peer("p").store("d.xml", text).document("d.xml")
        assert not _seeded(stored, text)
        assert serialize(stored) == text

    def test_a_non_ascii_text_is_adopted_and_counted_in_bytes(self):
        text = '<é a="ü">€</é>'
        stored = Peer("p").store("d.xml", text).document("d.xml")
        assert _seeded(stored, text)
        assert subtree_spans(stored) == ([0, 0, 6, 9], [14, 14, 7, 10])
        assert serialized_byte_length(stored) == len(text.encode()) == 19

    def test_a_deep_canonical_text_is_adopted(self):
        depth = 20_000
        text = "<a>" * (depth - 1) + "<a/>" + "</a>" * (depth - 1)
        stored = Peer("p").store("d.xml", text).document("d.xml")
        assert _seeded(stored, text)
        assert subtree_spans(stored)[1][1:4] == [len(text),
                                                 len(text) - 4, len(text) - 8]

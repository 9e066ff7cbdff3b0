"""Value-index units: typed probes, laziness, LRU caps."""

import pytest

from repro.xmldb import serializer, values
from repro.xmldb.node import Node
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import serialize_node
from repro.xmldb.values import coerce_number, node_string, value_index

DOC = """<shop>
 <item id="a1" grade="7"><price>10</price><name>axe</name></item>
 <item id="a2"><price>25.5</price><name>bow</name></item>
 <item id="a3" grade="3"><price>n/a</price><name>cord</name></item>
 <item id="a4"><price>7</price><name>axe</name></item>
</shop>"""


@pytest.fixture
def doc():
    return parse_document(DOC, uri="shop.xml")


def pres_of(doc, name):
    return [n.pre for n in doc.nodes()
            if n.name == name and n.kind.name == "ELEMENT"]


class TestProbes:
    def test_string_equality(self, doc):
        matched = value_index(doc).probe("name", "=", "axe")
        assert [node_string(doc, p) for p in matched] == ["axe", "axe"]
        assert list(matched) == sorted(matched)

    def test_string_inequality_is_complement(self, doc):
        index = value_index(doc)
        equal = index.probe("name", "=", "axe")
        unequal = index.probe("name", "!=", "axe")
        assert sorted(equal + unequal) == pres_of(doc, "name")

    def test_numeric_range(self, doc):
        index = value_index(doc)
        below = index.probe("price", "<", 11)
        assert sorted(node_string(doc, p) for p in below) == ["10", "7"]
        at_least = index.probe("price", ">=", 10)
        assert sorted(node_string(doc, p) for p in at_least) == \
            ["10", "25.5"]

    def test_numeric_inequality_includes_nan_values(self, doc):
        # "n/a" coerces to NaN and NaN != 10 is true.
        unequal = value_index(doc).probe("price", "!=", 10)
        assert sorted(node_string(doc, p) for p in unequal) == \
            ["25.5", "7", "n/a"]

    def test_nan_probe_matches_only_inequality(self, doc):
        index = value_index(doc)
        assert list(index.probe("price", "=", float("nan"))) == []
        assert list(index.probe("price", "<", float("nan"))) == []
        unequal = index.probe("price", "!=", float("nan"))
        assert len(unequal) == 4

    def test_attribute_column(self, doc):
        index = value_index(doc)
        assert len(index.probe("@id", "=", "a2")) == 1
        assert len(index.probe("@grade", ">", 5)) == 1
        assert list(index.attribute_pres("grade")) == \
            sorted(index.attribute_pres("grade"))

    def test_unknown_key_is_empty(self, doc):
        assert list(value_index(doc).probe("missing", "=", "x")) == []

    def test_boolean_probe_unsupported(self, doc):
        assert value_index(doc).probe("name", "=", True) is None

    def test_element_value_is_string_value(self):
        doc = parse_fragment("<a><b>1<c>2</c>3</b></a>", uri="f")
        matched = value_index(doc).probe("b", "=", "123")
        assert len(matched) == 1


class TestCaching:
    def test_column_lru_bounded_by_cap(self, doc, monkeypatch):
        monkeypatch.setattr(values, "DEFAULT_MEMO_CACHE_CAP", 2)
        index = value_index(doc)
        for key in ("name", "price", "@id", "@grade", "item"):
            index.probe(key, "=", "x")
        assert index.cached_columns() <= 2
        # Evicted columns rebuild transparently with correct answers.
        assert len(index.probe("name", "=", "axe")) == 2

    def test_serializer_memo_bounded_by_cap(self, doc, monkeypatch):
        monkeypatch.setattr(serializer, "DEFAULT_MEMO_CACHE_CAP", 3)
        items = pres_of(doc, "item") + pres_of(doc, "name")
        texts = [serialize_node(Node(doc, pre)) for pre in items]
        memo = doc._ser_cache.memo
        assert len(memo) <= 3
        # Re-serialisation after eviction still agrees.
        assert [serialize_node(Node(doc, pre)) for pre in items] == texts


class TestHelpers:
    def test_coerce_number(self):
        assert coerce_number(" 42 ") == 42.0
        assert coerce_number("abc") != coerce_number("abc")  # NaN

    def test_node_string_kinds(self):
        doc = parse_document('<a x="v"><!--c-->text</a>', uri="k")
        by_kind = {node.kind.name: node.pre for node in doc.nodes()}
        assert node_string(doc, by_kind["ATTRIBUTE"]) == "v"
        assert node_string(doc, by_kind["COMMENT"]) == "c"
        assert node_string(doc, by_kind["TEXT"]) == "text"
        assert node_string(doc, by_kind["ELEMENT"]) == "text"

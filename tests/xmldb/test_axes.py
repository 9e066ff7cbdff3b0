"""All thirteen axes over a known tree.

Tree: a(x=1)[ b[ c, "t1" ], d[ e[ f ] ], g ]

``child`` and ``attribute`` are per-node walks in ``xmldb/axes.py``;
every axis is a ``StructuralIndex.axis_scan`` — document order out, so
the reverse axes' nearest-first expectations read the scan backwards
(the evaluator numbers positional predicates that way,
``tests/xquery/test_evaluator.py``).
"""

import pytest

from repro.xmldb import axes
from repro.xmldb.index import structural_index
from repro.xmldb.node import Node
from repro.xmldb.parser import parse_document
from tests.oracle.xquery_reference_walker import axis_step


@pytest.fixture
def doc():
    return parse_document('<a x="1"><b><c/>t1</b><d><e><f/></e></d><g/></a>')


def names(nodes):
    return [n.name or n.value for n in nodes]


def by_name(doc, name):
    return next(n for n in doc.nodes() if n.name == name)


def scan(node, axis, test="node()"):
    """One axis step from one node, in document order."""
    pres = structural_index(node.doc).axis_scan(axis, test, [node.pre])
    return [Node(node.doc, pre) for pre in pres]


class TestDownward:
    def test_child_skips_attributes(self, doc):
        a = by_name(doc, "a")
        assert names(axes.child(a)) == ["b", "d", "g"]

    def test_child_includes_text(self, doc):
        b = by_name(doc, "b")
        assert names(axes.child(b)) == ["c", "t1"]

    def test_descendant(self, doc):
        a = by_name(doc, "a")
        assert names(scan(a, "descendant")) == ["b", "c", "t1", "d", "e",
                                             "f", "g"]

    def test_descendant_excludes_attributes(self, doc):
        assert all(n.name != "x" for n in scan(doc.root, "descendant"))

    def test_descendant_or_self(self, doc):
        d = by_name(doc, "d")
        assert names(scan(d, "descendant-or-self")) == ["d", "e", "f"]

    def test_attribute(self, doc):
        a = by_name(doc, "a")
        assert [(n.name, n.value) for n in axes.attribute(a)] == [("x", "1")]

    def test_attribute_of_non_element_empty(self, doc):
        attr = next(n for n in doc.nodes() if n.name == "x")
        assert list(axes.attribute(attr)) == []


class TestUpward:
    def test_parent(self, doc):
        f = by_name(doc, "f")
        assert names(scan(f, "parent")) == ["e"]

    def test_parent_of_attribute_is_owner(self, doc):
        attr = next(n for n in doc.nodes() if n.name == "x")
        assert attr.parent().name == "a"

    def test_ancestor(self, doc):
        f = by_name(doc, "f")
        assert [n.name for n in reversed(scan(f, "ancestor"))][:3] == ["e", "d", "a"]

    def test_ancestor_or_self(self, doc):
        f = by_name(doc, "f")
        assert [n.name for n in reversed(scan(f, "ancestor-or-self"))][:2] == ["f", "e"]

    def test_root_has_no_parent(self, doc):
        assert scan(doc.root, "parent") == []


class TestHorizontal:
    def test_following_sibling(self, doc):
        b = by_name(doc, "b")
        assert names(scan(b, "following-sibling")) == ["d", "g"]

    def test_preceding_sibling_reverse_order(self, doc):
        g = by_name(doc, "g")
        assert names(reversed(scan(g, "preceding-sibling"))) == ["d", "b"]

    def test_following(self, doc):
        b = by_name(doc, "b")
        assert names(scan(b, "following")) == ["d", "e", "f", "g"]

    def test_preceding_excludes_ancestors(self, doc):
        f = by_name(doc, "f")
        out = names(reversed(scan(f, "preceding")))
        assert "a" not in out and "d" not in out and "e" not in out
        assert out == ["t1", "c", "b"]  # reverse document order


class TestNodeTests:
    def test_name_test(self, doc):
        a = by_name(doc, "a")
        assert names(axis_step(a, "child", "d")) == ["d"]

    def test_wildcard(self, doc):
        a = by_name(doc, "a")
        assert names(axis_step(a, "child", "*")) == ["b", "d", "g"]

    def test_text_test(self, doc):
        b = by_name(doc, "b")
        assert names(axis_step(b, "child", "text()")) == ["t1"]

    def test_node_test(self, doc):
        b = by_name(doc, "b")
        assert names(axis_step(b, "child", "node()")) == ["c", "t1"]

    def test_wildcard_excludes_text(self, doc):
        b = by_name(doc, "b")
        assert names(axis_step(b, "child", "*")) == ["c"]


class TestSelfAxis:
    def test_self(self, doc):
        b = by_name(doc, "b")
        assert scan(b, "self") == [b]


class TestAxisSets:
    def test_categories_are_disjoint(self):
        assert not (axes.REVERSE_AXES & axes.HORIZONTAL_AXES)
        assert axes.NON_OVERLAPPING_AXES <= set(axes.AXES) | {"parent"}

    def test_all_thirteen_registered(self):
        assert len(axes.AXES) == 12  # all but the namespace axis

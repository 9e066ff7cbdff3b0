"""Differential test: the structural index's parts, each built on first
read, against the one eager pass they replaced.

The oracle (``tests/oracle/index_reference.py``, the old
``StructuralIndex.__init__`` and ``ValueIndex._attribute_pres``) builds
everything at once. Properties, on the scanner's own document
strategies:

* every part ≡ the reference — for a parsed document, a parsed
  fragment, a ``DocumentBuilder``-built document, a projected one and
  an element shredded out as a message fragment (the last three carry
  no scanner postings: the single fallback pass), read in any order;
* the postings the scanner emits ≡ one pass over the finished columns,
  names identical by ``is`` to the interned names in the column;
* a ``child`` / ``descendant`` chain from a tree root, run step by step
  through ``axis_scan``, ≡ the deleted path summary's ``match_chain``.

Tier-1 runs a small seeded sample; CI's ``fuzz`` job runs it under
``--hypothesis-profile=long``.
"""

from sys import intern

from hypothesis import given, strategies as st

from repro.xmldb.columns import ColumnSet
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.index import structural_index
from repro.xmldb.node import Node, NodeKind
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.projection import project
from repro.xmldb.values import value_index
from tests.conftest import fuzz_settings
from tests.oracle import COLUMNS
from tests.oracle.index_reference import ReferenceIndex
from tests.oracle.xrpc_decoder import build_fragment_from_node
from tests.xmldb.test_parser_differential import documents, fragments

PARTS = ("tag_pres", "attribute_pres", "element_pres", "text_pres",
         "comment_pres", "non_attr_pres", "non_attr_rank")

_parsed = documents().map(parse_document) | fragments().map(parse_fragment)
_orders = st.permutations(PARTS)


def plain(part):
    """A part as plain lists, to compare with the reference's."""
    if isinstance(part, dict):
        return {name: list(pres) for name, pres in part.items()}
    return list(part)


def _agree(doc: Document, order) -> None:
    """Every part of ``doc``'s index, first read in ``order``, equals
    the reference's — and so does what rides on them."""
    reference = ReferenceIndex(doc)
    index = structural_index(doc)
    for part in order:
        assert plain(getattr(index, part)) == getattr(reference, part), part
    for name, pres in reference.attribute_pres.items():
        assert list(value_index(doc).attribute_pres(name)) == pres
    assert list(value_index(doc).attribute_pres("no such name")) == []
    for pre in reference.element_pres[:3]:
        assert index.nodeid(0, pre) == reference.nodeid(0, pre)


def _rebuilt(doc: Document) -> Document:
    """``doc`` copied under a fresh document node by the builder, with
    a comment on either side of it (the scanner drops those)."""
    builder = DocumentBuilder("built.xml")
    builder.start_document()
    builder.comment("lead")
    builder.copy_subtree(Node(doc, 1 if doc.kinds[0] == NodeKind.DOCUMENT
                              else 0))
    builder.comment("trail")
    builder.end_document()
    return builder.finish()


@given(_parsed, _orders)
@fuzz_settings(200)
def test_parsed_parts_match_the_oracle(doc, order):
    assert doc.columns.postings is not None
    _agree(doc, order)


@given(_parsed, _orders)
@fuzz_settings(100)
def test_built_parts_match_the_oracle(doc, order):
    built = _rebuilt(doc)
    assert built.columns.postings is None
    _agree(built, order)


@given(_parsed, st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
       st.lists(st.integers(0, 10_000), max_size=3), _orders)
@fuzz_settings(100)
def test_projected_parts_match_the_oracle(doc, used, returned, order):
    elements = structural_index(doc).element_pres
    result = project(doc,
                     [elements[pick % len(elements)] for pick in used],
                     [elements[pick % len(elements)] for pick in returned])
    assert result.doc.columns.postings is None
    _agree(result.doc, order)


@given(_parsed, st.integers(0, 10_000), _orders)
@fuzz_settings(40)
def test_shredded_parts_match_the_oracle(doc, pick, order):
    elements = structural_index(doc).element_pres
    shredded = build_fragment_from_node(
        "shred.xml", Node(doc, elements[pick % len(elements)]))
    assert shredded.columns.postings is None
    _agree(shredded, order)


@given(_parsed)
@fuzz_settings(200)
def test_scanner_postings_equal_one_pass_over_the_columns(doc):
    bare = Document(doc.uri, ColumnSet(
        *(getattr(doc, column) for column in COLUMNS)))
    assert bare.columns.postings is None
    emitted = doc.columns.postings
    assert emitted is structural_index(doc).name_postings()
    assert emitted == structural_index(bare).name_postings()
    for kind, table in zip((NodeKind.ELEMENT, NodeKind.ATTRIBUTE), emitted):
        assert list(table) == list(dict.fromkeys(
            name for name, k in zip(doc.names, doc.kinds) if k == kind))
        for name, pres in table.items():
            assert name is intern(name)
            assert all(doc.names[pre] is name for pre in pres)


_steps = st.lists(st.tuples(st.sampled_from(["child", "descendant"]),
                            st.integers(0, 10_000)), min_size=1, max_size=3)


@given(_parsed, _steps)
@fuzz_settings(300)
def test_a_root_chain_through_axis_scan_matches_the_path_summary(doc, steps):
    reference = ReferenceIndex(doc)
    names = ["*", "absent", *reference.tag_pres]
    chain = [(axis, names[pick % len(names)]) for axis, pick in steps]
    index = structural_index(doc)
    pres = [0]
    for axis, name in chain:
        pres = index.axis_scan(axis, name, pres)
    assert list(pres) == reference.match_chain(chain)

"""Differential test: Algorithm 1 in O(kept) against the list-based
one it replaced.

``xmldb/projection.py`` collects the kept rows as single pres plus one
run per returned subtree and gathers only those; the oracle
(``tests/oracle/projection_reference.py``, the old code verbatim)
flags every source node and tests every pre under the new root.
Property: for any document the scanner accepts — document-rooted or a
fragment, with attributes, comments, PIs and text — and any used /
returned node sets (attributes, a lone text node and the document node
included, with and without ``keep_attributes``), both produce the same
six columns, the same ``pre_map``, ``kept`` / ``total`` and uri, or
raise the same ``XmlError``.

Tier-1 runs a small seeded sample; CI's ``fuzz`` job runs it under
``--hypothesis-profile=long``.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import XmlError
from repro.xmldb.document import DocumentBuilder
from repro.xmldb.node import Node
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.projection import project
from tests.conftest import fuzz_settings
from tests.oracle import columns
from tests.oracle.projection_reference import project as reference_project
from tests.xmldb.test_parser_differential import documents, fragments


def _outcome(run):
    try:
        result = run()
    except XmlError as err:
        return str(err)
    if result is None:
        return None
    return (columns(result.doc), result.pre_map, result.kept,
            result.total, result.doc.uri)


def _agree(doc, used, returned, keep_attributes) -> None:
    """The library takes the document and pres, the oracle nodes."""
    used = [pre % len(doc) for pre in used]
    returned = [pre % len(doc) for pre in returned]
    assert _outcome(lambda: project(
        doc, used, returned, keep_attributes=keep_attributes)) == \
        _outcome(lambda: reference_project(
            [Node(doc, pre) for pre in used],
            [Node(doc, pre) for pre in returned],
            keep_attributes=keep_attributes))


_pres = st.lists(st.integers(0, 10_000), max_size=5)


@given(documents().map(parse_document) | fragments().map(parse_fragment),
       _pres, _pres, st.booleans())
@fuzz_settings(300)
def test_projection_matches_the_oracle(doc, used, returned,
                                       keep_attributes):
    _agree(doc, used, returned, keep_attributes)


def _every_kind_document():
    """Every node kind, and a document node with three children (the
    scanner drops comments outside the root element; the builder keeps
    them) — keeping that document node whole is refused."""
    builder = DocumentBuilder("kinds.xml")
    builder.start_document()
    builder.comment("lead")
    builder.copy_subtree(parse_fragment(
        '<a x="1" y="2"><b z="3"><c/>text</b>'
        '<d><e w="4">deep</e><?pi body?></d><f/></a>').root)
    builder.comment("trail")
    builder.end_document()
    return builder.finish()


@pytest.mark.parametrize("keep_attributes", [False, True])
def test_every_pair_of_nodes_on_one_document(keep_attributes):
    """Exhaustive: each node as the lone used or returned node (a lone
    text node, an attribute, the document node), and each pair."""
    doc = _every_kind_document()
    refused = _outcome(lambda: project(doc, [], [0], keep_attributes))
    assert refused == "cannot project a document with no root element"
    for first in range(len(doc)):
        _agree(doc, [first], [], keep_attributes)
        _agree(doc, [], [first], keep_attributes)
        for second in range(len(doc)):
            _agree(doc, [first], [second], keep_attributes)
            _agree(doc, [first, second], [], keep_attributes)

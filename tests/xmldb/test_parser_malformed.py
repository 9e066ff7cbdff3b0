"""Malformed input: every fault is typed, and the scanner rejects
exactly what the oracle rejects.

A corrupted XRPC message must cross the wire as a ``repro.errors``
type, never as a bare ``ValueError`` or ``ExpatError`` — so every
prefix and every single-character substitution of one by-projection
request and one response is pushed through ``from_xml`` and, where that
still accepts it, through ``unmarshal_calls`` / ``unmarshal_result``;
references and numeric atomics no fragment or lexical space backs are
typed faults too. Where the oracle (the regex scanner,
``tests/oracle/xml_scanner.py``) raises ``XmlParseError`` the scanner
must raise it too. Messages and offsets were pinned to the oracle's
while the scanner was that regex scanner; they are expat's now, so a
rejection is checked for its form (a ``str`` index the message names),
and a bad reference for pointing at its ``&``.
"""

import time

import pytest
from hypothesis import given, strategies as st

from repro.decompose.strategy import Strategy
from repro.errors import ReproError, XmlParseError, XrpcMarshalError
from repro.workloads import BENCHMARK_QUERY, build_federation
from repro.xmldb import parser as scanner
from repro.xrpc.marshal import (
    unmarshal_atomic, unmarshal_calls, unmarshal_result,
)
from repro.xrpc.messages import (
    Atomic, AttrRef, Call, NodeRef, RequestMessage, ResponseMessage,
)
from tests.conftest import fuzz_settings
from tests.oracle import outcome, xml_scanner as oracle
from tests.xmldb.test_parser_differential import documents

SUBSTITUTES = "<>&\"'/= ;#x"


@pytest.fixture(scope="module")
def wire():
    """The last (request, response) pair of a by-projection run: a
    request with projection paths and a call sequence, a response with
    a fragment and node references."""
    last = build_federation(0.001).run(
        BENCHMARK_QUERY, at="local", strategy=Strategy.BY_PROJECTION,
        keep_message_xml=True).messages[-1]
    request_xml, response_xml = last.request_xml, last.response_xml
    assert "<xrpc:returned-path>" in request_xml
    assert "<xrpc:fragment>" in response_xml
    return {RequestMessage: request_xml, ResponseMessage: response_xml}


def _corruptions(text: str):
    for cut in range(len(text)):
        yield text[:cut]
    for index, original in enumerate(text):
        for substitute in SUBSTITUTES:
            if substitute != original:
                yield text[:index] + substitute + text[index + 1:]


def _agrees_with_oracle(text: str, parse_name: str = "parse_document"):
    """The scanner's outcome on ``text`` (returned) is the oracle's: the
    same columns, or a rejection at a ``str`` index of ``text``."""
    new = outcome(getattr(scanner, parse_name), text)
    old = outcome(getattr(oracle, parse_name), text)
    if not isinstance(old, XmlParseError):
        assert new == old, text
    else:
        assert isinstance(new, XmlParseError), text
        assert 0 <= new.offset <= len(text), text
        assert str(new).endswith(f" at offset {new.offset}"), text
    return new


@pytest.mark.parametrize("message_type", [RequestMessage, ResponseMessage])
def test_every_prefix_and_substitution_is_a_typed_fault(wire, message_type):
    text = wire[message_type]
    message_type.from_xml(text)
    rejected = 0
    for corrupt in _corruptions(text):
        if isinstance(_agrees_with_oracle(corrupt), XmlParseError):
            rejected += 1
            continue
        try:  # well-formed still: the message layer's own checks
            message = message_type.from_xml(corrupt)
            if message_type is RequestMessage:
                unmarshal_calls(message.calls, message.fragments, "m")
            else:
                unmarshal_result(message.results, message.fragments, "m")
        except ReproError:
            rejected += 1
    assert rejected > len(text)  # every proper prefix, and then some


@pytest.mark.parametrize("item", [
    NodeRef(1, 0), NodeRef(1, -1), NodeRef(1, 4), NodeRef(2, 4),  # nodeid
    NodeRef(0, 1), NodeRef(-1, 1), NodeRef(3, 1),                 # fragid
    AttrRef(1, 0, "x"), AttrRef(0, 1, "x"), AttrRef(3, 1, "x"),
    NodeRef(2, 1),                                         # the container
], ids=repr)
def test_references_out_of_range_are_typed_faults(item):
    """Neither Python's negative indexing nor a bare ``IndexError``: a
    ``fragid`` / ``nodeid`` below 1 or past the end, and a reference to
    the synthetic ``xrpc:forest`` container, raise ``XrpcMarshalError``
    before any node is handed out."""
    fragments = [scanner.parse_fragment('<a x="1"><b/><c/></a>').root,
                 scanner.parse_fragment(
                     "<xrpc:forest><d/><e/></xrpc:forest>").root]
    with pytest.raises(XrpcMarshalError):
        unmarshal_result([[item]], fragments, "m")
    with pytest.raises(XrpcMarshalError):
        unmarshal_calls([Call([("p", [item])])], fragments, "m")


@pytest.mark.parametrize("type_name, lexical", [
    ("xs:integer", "x"), ("xs:integer", ""), ("xs:integer", "1.5"),
    ("xs:double", "zz"), ("xs:decimal", "1,5"), ("xs:float", ""),
])
def test_malformed_numeric_atomics_are_typed_faults(type_name, lexical):
    with pytest.raises(XrpcMarshalError):
        unmarshal_atomic(Atomic(type_name, lexical))
    with pytest.raises(XrpcMarshalError):
        unmarshal_result([[Atomic(type_name, lexical)]], [], "m")


@pytest.mark.parametrize("text, offset", [
    ("<a>&#xZZ;</a>", 3),
    ("<a>&#;</a>", 3),
    ("<a>&#99999999999;</a>", 3),
    ("<a>&#x110000;</a>", 3),
    ('<a x="&#bad;"/>', 6),
    ("<a>&#-1;</a>", 3),
    ("<a>xx&nope;</a>", 5),
    ('<a y="1" x="ab&nope;"/>', 14),
    ("<a>x &amp y</a>", 5),
    ("<a>ok&amp;<b>t&lt</b></a>", 14),
])
def test_reference_errors_are_typed_and_point_at_the_ampersand(text, offset):
    for parse in (scanner.parse_document, scanner.parse_fragment):
        with pytest.raises(XmlParseError) as info:
            parse(text)
        assert info.value.offset == offset
        assert text[offset] == "&"
        assert f"at offset {offset}" in str(info.value)
    _agrees_with_oracle(text)


def test_unterminated_megabyte_tag_fails_in_linear_time():
    """No nested quantifier over overlapping classes: a 1 MB attribute
    list with no closing ``>`` is refused after one pass, not after
    backtracking through every split of it."""
    cases = {
        "repeated attribute": "<a " + 'x="1" ' * (1_000_000 // 6),
        "distinct attributes": "<a " + "".join(
            f'x{index}="1" ' for index in range(100_000)),
        "name": "<" + "a" * 1_000_000,
        "whitespace": "<a" + " \n" * 500_000,
        "value": '<a x="' + "y" * 1_000_000,
    }
    for label, text in cases.items():
        started = time.process_time()
        with pytest.raises(XmlParseError):
            scanner.parse_document(text)
        # Linear is well under a second here; quadratic would be hours.
        assert time.process_time() - started < 30, label


def test_nesting_is_not_bounded_by_the_recursion_limit():
    depth = 20_000
    doc = scanner.parse_fragment("<a>" * depth + "</a>" * depth)
    assert len(doc) == depth and doc.levels[-1] == depth - 1
    assert doc.sizes[0] == depth - 1


_edit = st.tuples(st.integers(0, 10_000), st.sampled_from("sid"),
                  st.sampled_from(SUBSTITUTES + "![]-?a1\n"))


@given(documents(), st.lists(_edit, min_size=1, max_size=3),
       st.sampled_from(["parse_document", "parse_fragment"]))
@fuzz_settings(300)
def test_edited_documents_fail_where_the_oracle_fails(text, edits, name):
    """Up to three substitutions / insertions / deletions anywhere in a
    generated document: accepted with the same columns, or rejected by
    both."""
    for position, action, character in edits:
        index = position % (len(text) + 1)
        if action == "s":
            text = text[:index] + character + text[index + 1:]
        elif action == "i":
            text = text[:index] + character + text[index:]
        else:
            text = text[:index] + text[index + 1:]
    _agrees_with_oracle(text, name)

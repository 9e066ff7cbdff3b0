"""Compiled predicates & joins must be indistinguishable from the
naive walker.

Four layers:

* hypothesis property — on random trees with value-bearing leaves and
  attributes, every comparison operator × predicate shape (child /
  attribute / descendant / ``.`` selectors, reverse and sibling
  selectors, string and numeric literals, variable right-hand sides)
  yields identical results through the compiled set-at-a-time
  pipeline and the oracle's per-candidate evaluation
  (``tests/oracle/xquery_reference_walker``);
* query battery — predicate and FLWOR-join queries agree end-to-end on
  the library document, including mixed-type edge cases the join
  answers by the general comparison, raise-or-match as the nested loop;
* corpora — the library and XMark federations give deep-equal results
  for predicate/join queries under all four fixed strategies plus
  ``auto``, against a naive-engine baseline;
* a ``Peer.store`` swap — the next run reads the new document's value
  index (results change accordingly and keep matching the naive
  engine) and re-plans.
"""

from hypothesis import given, strategies as st
import pytest

from repro.decompose import Strategy
from repro.workloads import build_federation
from repro.xmldb.document import DocumentBuilder
from repro.xquery.context import DynamicContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_query
from repro.xquery.xdm import sequences_deep_equal

from tests.conftest import COURSE_XML, STUDENTS_XML, fuzz_settings
from tests.oracle.xquery_reference_walker import (
    ReferenceEvaluator, reference_engine,
)

_tags = st.sampled_from(["a", "b", "c"])
_values = st.sampled_from(
    ["", "1", "7", "40", "07", "x", "ya", "3.5", "-2", "nan", "b", " 7 "])


@st.composite
def value_trees(draw, depth=3):
    builder = DocumentBuilder("prop.xml")

    def element(level: int) -> None:
        builder.start_element(draw(_tags))
        for index in range(draw(st.integers(0, 2))):
            builder.attribute(f"at{index}", draw(_values))
        for _ in range(draw(st.integers(0, 3 if level < depth else 0))):
            if draw(st.booleans()) and level < depth:
                element(level + 1)
            else:
                builder.text(draw(_values))
        builder.end_element()

    element(0)
    return builder.finish()


def keys(items):
    out = []
    for item in items:
        if hasattr(item, "pre"):
            out.append((id(item.doc), item.pre))
        else:
            out.append(item)
    return out


def assert_query_agrees(query, doc):
    module = parse_query(query)

    def run(engine):
        env = DynamicContext(resolve_doc=lambda uri: doc)
        return engine(module).run(env)

    indexed, naive = run(Evaluator), run(ReferenceEvaluator)
    assert keys(indexed) == keys(naive), query


OPS = ["=", "!=", "<", "<=", ">", ">="]
SELECTORS = ["child::b", "attribute::at0", "descendant::b", ".",
             "parent::a", "ancestor::b", "following-sibling::b",
             "preceding-sibling::c/child::b"]
LITERALS = ['"7"', '"x"', "7", "3.5", "0"]


@given(doc=value_trees(), data=st.data())
@fuzz_settings(200)
def test_predicate_shapes_indexed_equals_naive(doc, data):
    op = data.draw(st.sampled_from(OPS))
    selector = data.draw(st.sampled_from(SELECTORS))
    literal = data.draw(st.sampled_from(LITERALS))
    flipped = data.draw(st.booleans())
    comparison = (f"{literal} {op} {selector}" if flipped
                  else f"{selector} {op} {literal}")
    query = f"doc('d')//a[{comparison}]/child::b"
    assert_query_agrees(query, doc)


@given(doc=value_trees(), data=st.data())
@fuzz_settings(150)
def test_conjunctions_and_residuals_indexed_equals_naive(doc, data):
    query = data.draw(st.sampled_from([
        "doc('d')//a[child::b = '7' and attribute::at0 = '7']",
        "doc('d')//a[child::b]/child::c",
        "doc('d')//a[child::b = '7' or child::c = '7']",
        "doc('d')//a[not(child::b)]",
        "doc('d')//a[child::b/child::c = '7']",
        "doc('d')//b[. != '1']/child::c",
        "doc('d')//a[descendant::c > 2]",
        "doc('d')//b[parent::a]",
        "doc('d')//b[following-sibling::c = 1]",
        "doc('d')//c[not(preceding-sibling::b) or ancestor::a = '7']",
        "doc('d')//b/parent::a[child::c = '7']",
        "doc('d')//c/ancestor-or-self::*[attribute::at0 = '7']",
        "doc('d')//b/preceding::b[. = '7']",
    ]))
    assert_query_agrees(query, doc)


@given(doc=value_trees(), data=st.data())
@fuzz_settings(80)
def test_variable_rhs_and_joins_indexed_equals_naive(doc, data):
    query = data.draw(st.sampled_from([
        "let $v := doc('d')//b return doc('d')//a[child::b = $v]",
        "let $v := doc('d')//c return doc('d')//a[attribute::at0 = $v]",
        "for $x in doc('d')//a return"
        " if ($x/child::b = doc('d')//c) then $x else ()",
        "for $x in doc('d')//a return"
        " if ($x/descendant::b < 5) then $x/child::b else ()",
        "for $x in doc('d')//a return"
        " if ($x/attribute::at0 = '7') then $x else $x/child::b",
    ]))
    assert_query_agrees(query, doc)


BATTERY = [
    # Index-plan shapes.
    "doc('d')//person[name = 'Ann']/id",
    "doc('d')//person[id >= 's2' and id < 's4']/name",
    "doc('d')//person[tutor != 'Bob']/name",
    # Positional predicates stay per-context.
    "doc('d')//person[2]/name",
    "doc('d')//person[tutor][1]/name",
    "doc('d')//person[position() = last()]/id",
    # Join shapes, incl. mixed-type invariants.
    "for $p in doc('d')//person return"
    " if ($p/name = doc('d')//tutor) then $p/id else ()",
    "for $p in doc('d')//person return"
    " if ($p/id = ('s1', 's3')) then $p/name else ()",
    "for $p in doc('d')//person return"
    " if ($p/name = (1, 'Bob')) then $p/id else ()",
    "for $p in doc('d')//person return"
    " if ($p/child::id = 's2') then $p else ()",
    # Range filter through the chain probe.
    "for $p in doc('d')//person return"
    " if ($p/name > 'Bn') then $p/id else ()",
    # Non-node loop items force the naive loop.
    "for $i in (1, 2, 3) return if ($i = 2) then $i else ()",
]


@pytest.mark.parametrize("query", BATTERY)
def test_battery_on_library_doc(query):
    from repro.xmldb.parser import parse_document

    doc = parse_document(STUDENTS_XML, uri="d")
    assert_query_agrees(query, doc)


@pytest.mark.parametrize("step", ["self::at0", "ancestor-or-self::at0",
                                  "self::*", "parent::a/child::at0"])
def test_self_probe_does_not_confuse_attribute_and_element_columns(step):
    """``. = literal`` keys the value index by the step's name test;
    a step that passes attribute contexts through may name either an
    attribute or an element, so it must not pick one column."""
    from repro.xmldb.parser import parse_document

    doc = parse_document('<r><a at0="7"><at0>7</at0></a><a at0="8"/></r>',
                         uri="d")
    query = f"doc('d')//a/attribute::at0/{step}[. = '7']"
    assert_query_agrees(query, doc)
    module = parse_query(query)
    env = DynamicContext(resolve_doc=lambda uri: doc)
    assert len(Evaluator(module).run(env)) == 1


# ---------------------------------------------------------------------------
# Corpora, end to end, all strategies + auto
# ---------------------------------------------------------------------------

STRATEGIES = [Strategy.DATA_SHIPPING, Strategy.BY_VALUE,
              Strategy.BY_FRAGMENT, Strategy.BY_PROJECTION, "auto"]

#: Q2 rephrased with predicate + join emphasis, plus a filter query.
LIBRARY_JOIN_QUERY = """
(let $s := doc("xrpc://A/students.xml")/child::people/child::person,
     $c := doc("xrpc://B/course42.xml")
 for $e in $c/enroll/exam
 where $e/@id = $s[tutor]/id
 return $e)/grade
"""

XMARK_PREDICATE_QUERY = """
for $p in doc("xrpc://peer1/people.xml")
          /child::site/child::people/child::person
return if ($p/child::age < 30) then $p/child::name else ()
"""

XMARK_JOIN_QUERY = """
(let $t := (let $s := doc("xrpc://peer1/people.xml")
                     /child::site/child::people/child::person
            return for $x in $s
                   return if ($x/child::age < 40) then $x else ())
 return for $e in doc("xrpc://peer2/auctions.xml")
                  /descendant::open_auction
        return if ($e/child::seller/attribute::person = $t/attribute::id)
               then $e/child::annotation else ())/child::author
"""


def run_naive(federation, query, at):
    with reference_engine():
        return federation.run(query, at=at,
                              strategy=Strategy.DATA_SHIPPING)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_library_join_corpus_end_to_end(strategy):
    from repro.system.federation import Federation

    federation = Federation()
    federation.add_peer("A").store("students.xml", STUDENTS_XML)
    federation.add_peer("B").store("course42.xml", COURSE_XML)
    federation.add_peer("local")
    baseline = run_naive(federation, LIBRARY_JOIN_QUERY, "local")
    result = federation.run(LIBRARY_JOIN_QUERY, at="local",
                            strategy=strategy)
    assert sequences_deep_equal(baseline.items, result.items), strategy


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("query", [XMARK_PREDICATE_QUERY,
                                   XMARK_JOIN_QUERY])
def test_xmark_corpus_end_to_end(strategy, query):
    federation = build_federation(scale=0.004)
    baseline = run_naive(federation, query, "local")
    result = federation.run(query, at="local", strategy=strategy)
    assert sequences_deep_equal(baseline.items, result.items), strategy


def test_store_swap_invalidates_value_indexes_end_to_end():
    """A Peer.store replaces the document object: the next run (auto,
    re-planned because the store moved the federation's generation)
    probes fresh value indexes and sees the new content."""
    from repro.system.federation import Federation

    federation = Federation()
    federation.add_peer("A").store("students.xml", STUDENTS_XML)
    federation.add_peer("local")
    query = ('doc("xrpc://A/students.xml")'
             "//person[name = 'Zed']/id")
    empty = federation.run(query, at="local", strategy="auto")
    assert empty.items == []
    federation.peer("A").store(
        "students.xml",
        STUDENTS_XML.replace("<name>Ann</name>", "<name>Zed</name>"))
    found = federation.run(query, at="local", strategy="auto")
    assert len(found.items) == 1
    baseline = run_naive(federation, query, "local")
    assert sequences_deep_equal(found.items, baseline.items)

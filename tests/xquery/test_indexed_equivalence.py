"""Index-scan path execution must be indistinguishable from the
per-node walker it replaced (``tests/oracle/xquery_reference_walker``).

Four layers:

* hypothesis property — on random generated documents, every axis ×
  node-test step over random context sets (every node kind, the
  document node, duplicates, reverse order, several documents) yields
  identical node lists through ``axis_scan`` and the oracle's per-node
  walk; the same for whole projection paths, pseudo steps included;
* query battery — parsed path queries (chains, predicates, positional
  predicates on forward and reverse axes, unions) agree end-to-end on
  handcrafted documents;
* corpora — the library (students/course) and XMark federations give
  deep-equal results under all four strategies plus ``auto``,
  compared against a federation run on the oracle.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.decompose import Strategy
from repro.paths.relpath import (
    PSEUDO_STEPS, RelPath, RelStep, compile_paths,
)
from repro.workloads import BENCHMARK_QUERY, build_federation
from repro.xmark import generate_pair
from repro.xmldb.axes import AXES
from repro.xmldb.compare import sort_document_order
from repro.xmldb.document import DocumentBuilder
from repro.xmldb.index import group_by_document, group_nodes, scan_groups
from repro.xmldb.node import Node
from repro.xquery.ast import Step
from repro.xquery.context import DynamicContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_query
from repro.xquery.xdm import sequences_deep_equal

from tests.conftest import COURSE_XML, Q2, STUDENTS_XML, fuzz_settings
from tests.oracle.xquery_reference_walker import (
    ReferenceEvaluator, reference_engine, walk_rel_path,
)

ALL_AXES = sorted(AXES)
TESTS = ["node()", "*", "a", "b", "at0", "text()", "comment()"]

_names = st.sampled_from(["a", "b", "c", "data"])
_attr_names = (st.just("at0"), st.sampled_from(["at1", "id", "ref"]))
_texts = st.text(alphabet="ab <&\"'", min_size=1, max_size=6)


@st.composite
def xml_trees(draw, depth=3):
    """A random tree, element-rooted (a fragment) or under a document
    node; some attributes are ID / IDREF typed by name."""
    builder = DocumentBuilder("prop.xml")
    with_document_node = draw(st.booleans())

    def element(level: int) -> None:
        builder.start_element(draw(_names))
        for index in range(draw(st.integers(0, 2))):
            builder.attribute(draw(_attr_names[index]), draw(_texts))
        for _ in range(draw(st.integers(0, 3 if level < depth else 0))):
            choice = draw(st.integers(0, 3))
            if choice == 0 and level < depth:
                element(level + 1)
            elif choice == 1:
                builder.comment(draw(_texts))
            else:
                builder.text(draw(_texts))
        builder.end_element()

    if with_document_node:
        builder.start_document()
    element(0)
    if with_document_node:
        builder.end_document()
    return builder.finish()


@st.composite
def contexts(draw):
    """Nodes of one or two documents: any kind, any order, duplicates."""
    docs = draw(st.lists(xml_trees(), min_size=1, max_size=2))
    population = [Node(doc, pre) for doc in docs for pre in range(len(doc))]
    return draw(st.lists(st.sampled_from(population), max_size=8))


def keys(nodes):
    return [(id(node.doc), node.pre) for node in nodes]


@given(context=contexts(), axis=st.sampled_from(ALL_AXES),
       test=st.sampled_from(TESTS))
@fuzz_settings(300)
def test_single_step_indexed_equals_naive(context, axis, test):
    naive = ReferenceEvaluator()._apply_step(Step(axis, test), list(context),
                                             DynamicContext())
    indexed = group_nodes(scan_groups(axis, test,
                                      group_by_document(context)))
    assert keys(indexed) == keys(naive)


_rel_steps = st.one_of(
    st.builds(RelStep, st.sampled_from(ALL_AXES), st.sampled_from(TESTS)),
    st.builds(RelStep, st.sampled_from(PSEUDO_STEPS)))


@given(context=contexts(), steps=st.lists(_rel_steps, max_size=4))
@fuzz_settings(200)
def test_rel_path_equals_walker(context, steps):
    """``RelPath.evaluate`` ≡ the per-node walk, and every stage of
    the path's compiled trie (each prefix joining, so each is
    yielded) ≡ evaluating that prefix on its own. (The walker handed
    the context of a zero-step path back as given; as a node set — all
    its callers took — it is the same.)"""
    path = RelPath(tuple(steps))

    def walked(prefix):
        return keys(sort_document_order(walk_rel_path(prefix, context)))

    assert keys(path.evaluate(context)) == walked(steps)
    prefixes = compile_paths(used=[RelPath(tuple(steps[:length]))
                                   for length in range(len(steps) + 1)])
    stages = [groups for _joins, groups
              in prefixes.evaluate(group_by_document(context))]
    assert len(stages) == len(steps) + 1
    for length, stage in enumerate(stages):
        assert keys(group_nodes(stage)) == walked(steps[:length])


@given(doc=xml_trees())
@settings(max_examples=60, deadline=None)
def test_chain_query_indexed_equals_naive(doc):
    for query in ("doc('d')//a", "doc('d')//a//b", "doc('d')/a/b",
                  "doc('d')//a/@at0", "doc('d')//node()/self::text()"):
        assert_query_agrees(query, doc)


QUERY_BATTERY = [
    "doc('d')//person/name",
    "doc('d')/child::people/child::person",
    "doc('d')//person[tutor]/id",
    "doc('d')//person[2]/name",
    "doc('d')//person/tutor/parent::person/name",
    "doc('d')//name/ancestor::*",
    "doc('d')//person[position() = last()]/name",
    "doc('d')//person/following-sibling::person/name",
    "doc('d')//text()",
    "doc('d')//person[name = 'Ann']/descendant-or-self::node()",
    "(doc('d')//name union doc('d')//tutor)",
    "doc('d')//person[tutor][1]/name",
    # Positional predicates number reverse-axis candidates nearest first.
    "doc('d')//name/ancestor::*[1]",
    "doc('d')//id/ancestor-or-self::*[2]",
    "doc('d')//person/preceding-sibling::person[1]/name",
    "doc('d')//id/preceding::name[position() = last()]",
    "doc('d')//tutor/parent::*[1]/following-sibling::*[2]/name",
    # Closures over reverse and sibling selectors.
    "doc('d')//name[parent::person/tutor]",
    "doc('d')//person[not(following-sibling::person)]/name",
    "doc('d')//name[following-sibling::tutor = 'Bob']",
    "doc('d')//person[preceding-sibling::person/name = 'Ann']/id",
]


@pytest.mark.parametrize("query", QUERY_BATTERY)
def test_query_battery_on_library_doc(query):
    from repro.xmldb.parser import parse_document
    doc = parse_document(STUDENTS_XML, uri="d")
    assert_query_agrees(query, doc)


def assert_query_agrees(query, doc):
    module = parse_query(query)

    def run(engine):
        env = DynamicContext(resolve_doc=lambda uri: doc)
        return engine(module).run(env)

    indexed, naive = run(Evaluator), run(ReferenceEvaluator)
    assert keys(indexed) == keys(naive), query


# ---------------------------------------------------------------------------
# Corpora, end to end, all strategies + auto
# ---------------------------------------------------------------------------

STRATEGIES = [Strategy.DATA_SHIPPING, Strategy.BY_VALUE,
              Strategy.BY_FRAGMENT, Strategy.BY_PROJECTION, "auto"]


def run_naive(federation, query, at):
    with reference_engine():
        return federation.run(query, at=at,
                              strategy=Strategy.DATA_SHIPPING)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_library_corpus_end_to_end(strategy):
    from repro.system.federation import Federation

    federation = Federation()
    federation.add_peer("A").store("students.xml", STUDENTS_XML)
    federation.add_peer("B").store("course42.xml", COURSE_XML)
    federation.add_peer("local")
    baseline = run_naive(federation, Q2, "local")
    result = federation.run(Q2, at="local", strategy=strategy)
    assert sequences_deep_equal(baseline.items, result.items), strategy


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_xmark_corpus_end_to_end(strategy):
    federation = build_federation(scale=0.004)
    baseline = run_naive(federation, BENCHMARK_QUERY, "local")
    result = federation.run(BENCHMARK_QUERY, at="local", strategy=strategy)
    assert sequences_deep_equal(baseline.items, result.items), strategy


#: XMark path, predicate and join queries (scale 0.02) with their answer
#: sizes: descendant-heavy chains, value probes, a semijoin and a
#: tiny-table lookup, the shapes the index layers were built for.
XMARK_BATTERY = [
    ('count(doc("people.xml")//person)', 1),
    ('doc("people.xml")//person/name', 50),
    ('doc("people.xml")//profile//interest', 118),
    ('doc("auctions.xml")//open_auction//bidder/increase', 132),
    ('doc("auctions.xml")//annotation//description//text()', 60),
    ('doc("auctions.xml")//seller/attribute::person', 60),
    ('doc("people.xml")/child::site/child::people/child::person', 50),
    ('doc("people.xml")//person[descendant::age < 40]/name', 19),
    ('doc("people.xml")//person[child::age < 40]/child::name', 19),
    ('doc("people.xml")//person[attribute::id = "person7"]', 1),
    ('doc("auctions.xml")//open_auction[child::type = "Featured"]'
     '/child::seller', 18),
    ('doc("auctions.xml")//open_auction'
     '[child::privacy = "Yes" and child::type = "Dutch"]/child::current', 7),
    ('doc("people.xml")//person[descendant::city = "Amsterdam"]'
     '/child::name', 5),
    ("""(let $t := (let $s := doc("people.xml")
                            /child::site/child::people/child::person
                return for $x in $s
                       return if ($x/child::age < 40) then $x else ())
     return for $e in doc("auctions.xml")/descendant::open_auction
            return if ($e/child::seller/attribute::person
                       = $t/attribute::id)
                   then $e/child::annotation else ())/child::author""", 24),
    ('for $p in doc("people.xml")/child::site/child::people/child::person'
     ' return if ($p/child::address/child::country = "Belgium")'
     ' then $p/child::name else ()', 6),
]


@pytest.fixture(scope="module")
def xmark_docs():
    people, auctions = generate_pair(0.02)
    return {"people.xml": people, "auctions.xml": auctions}


@pytest.mark.parametrize("query, items", XMARK_BATTERY)
def test_xmark_battery_indexed_equals_naive(xmark_docs, query, items):
    module = parse_query(query)

    def run(engine) -> list:
        return [(item.doc.uri, item.pre) if isinstance(item, Node) else item
                for item in engine(module).run(DynamicContext(
                    resolve_doc=xmark_docs.__getitem__))]

    indexed = run(Evaluator)
    assert indexed == run(ReferenceEvaluator)
    assert len(indexed) == items

"""A binding loop is one operator over its bindings: the work a ``for``
/ ``order by`` body does must not grow with the number of bindings, and
the per-binding fallback counts itself.

The queries are the three of ``benchmarks/e2e/workloads.py::
LOCAL_QUERIES`` that paid per binding (q8, q9, q11) and the two
benchmark queries, copied here: the benchmark file is the pipeline's
instrument and is neither imported nor edited.
"""

import re

import pytest

from repro.obs.metrics import GLOBAL_REGISTRY
from repro.workloads import BENCHMARK_QUERY, SHARDED_BENCHMARK_QUERY
from repro.xmark import generate_pair
from repro.xmldb.index import StructuralIndex
from repro.xquery.context import DynamicContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_query

from tests.xquery.helpers import run

Q8 = 'doc("auctions.xml")//open_auction/child::bidder[1]/child::increase'
Q9 = ('for $p in doc("people.xml")//person '
      'order by $p/child::name return $p/child::name')
Q11 = ('for $p in doc("people.xml")//person '
       'return <row id="{$p/attribute::id}">{$p/child::name}</row>')

_LOCAL = lambda text: re.sub(r'xrpc://[^/"]+/', "", text)  # noqa: E731

LOCAL_QUERIES = (
    'count(doc("people.xml")//person)',
    'doc("people.xml")//profile//interest',
    'doc("auctions.xml")//open_auction//bidder/increase',
    'doc("auctions.xml")//annotation//description//text()',
    'doc("people.xml")//person[descendant::age < 40]/name',
    _LOCAL(BENCHMARK_QUERY),
    'doc("auctions.xml")//increase/ancestor::open_auction/child::seller',
    Q8, Q9,
    'doc("people.xml")//person/child::name'
    '/following-sibling::emailaddress',
    Q11,
    _LOCAL(SHARDED_BENCHMARK_QUERY),
)


def evaluate(text: str, scale: float) -> list:
    people, auctions = generate_pair(scale)
    docs = {"people.xml": people, "auctions.xml": auctions}
    env = DynamicContext(resolve_doc=docs.__getitem__)
    return Evaluator(parse_query(text)).run(env)


def fallbacks() -> float:
    metric = GLOBAL_REGISTRY.get("evaluator_loop_fallbacks_total")
    return 0 if metric is None else sum(
        series.value for series in metric.series().values())


@pytest.fixture
def scans(monkeypatch):
    """The number of ``StructuralIndex.axis_scan`` calls so far."""
    calls = []
    scan = StructuralIndex.axis_scan

    def counted(self, axis, test, pres):
        calls.append(axis)
        return scan(self, axis, test, pres)

    monkeypatch.setattr(StructuralIndex, "axis_scan", counted)
    return calls


@pytest.mark.parametrize("query", [Q8, Q9, Q11])
def test_scan_count_does_not_grow_with_the_bindings(query, scans):
    small = evaluate(query, 0.01)    # 25 persons
    few = len(scans)
    large = evaluate(query, 0.04)    # 100 persons
    assert len(large) > 2 * len(small) > 0
    assert len(scans) - few == few


def test_no_fallback_on_the_ledger_queries():
    before = fallbacks()
    for query in LOCAL_QUERIES:
        evaluate(query, 0.01)
    assert fallbacks() == before


def test_a_loop_over_two_documents_runs_per_binding_and_says_so():
    before = fallbacks()
    result = run("for $x in (<a/>, <b/>) return $x/self::a")
    assert [node.name for node in result] == ["a"]
    assert fallbacks() == before + 1
    reasons = GLOBAL_REGISTRY.get("evaluator_loop_fallbacks_total").series()
    assert ("multi-document",) in reasons


def test_a_quantifier_stops_at_the_deciding_binding_and_says_so():
    """Planned per binding: the loop ends at the first verdict that
    settles it, so nothing after it is evaluated (or raises)."""
    before = fallbacks()
    assert run("some $x in (1, 2, 'a') satisfies $x = 2") == [True]
    assert run("every $x in (1, 2, 'a') satisfies $x = 2") == [False]
    assert fallbacks() == before + 2
    reasons = GLOBAL_REGISTRY.get("evaluator_loop_fallbacks_total").series()
    assert ("quantifier",) in reasons


def test_a_shape_that_cannot_lift_is_planned_per_binding_once():
    """An axis the lifted path does not answer is a property of the
    body: the plan stops attempting it (and keeps counting)."""
    people, _auctions = generate_pair(0.01)
    module = parse_query('for $p in doc("people.xml")//person '
                         "return $p/following-sibling::person[1]/child::name")
    evaluator = Evaluator(module)
    env = DynamicContext(resolve_doc=lambda uri: people)
    before = fallbacks()
    first = evaluator.run(env)
    assert evaluator._plans[id(module.body)][1][:2] == (None, "axis")
    assert [node.pre for node in evaluator.run(env)] \
        == [node.pre for node in first]
    assert len(first) == 24
    assert fallbacks() == before + 2


def test_a_body_path_from_a_root_binding_is_lifted():
    """A chain from a tree root is a step like any other: the lifted
    path answers it (the path summary's ``root-context`` refusal is
    gone with the summary)."""
    before = fallbacks()
    names = evaluate('for $d in doc("people.xml") '
                     "return $d/child::site/child::people"
                     "/child::person/child::name", 0.01)
    assert len(names) == 25
    assert [node.pre for node in names] == [node.pre for node in evaluate(
        'doc("people.xml")//person/child::name', 0.01)]
    assert fallbacks() == before

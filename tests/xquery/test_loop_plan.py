"""A binding loop is one operator over its bindings: the work a ``for``
/ ``order by`` body does must not grow with the number of bindings, and
the per-binding fallback counts itself. The same frame evaluates a
top-level expression (one row) and a loop nested in a loop.

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
from repro.xquery import evaluator as evaluator_module
from repro.xquery.context import DynamicContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_query

from tests.oracle.xquery_reference_walker import ReferenceEvaluator
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


def test_a_loop_over_two_documents_is_lifted():
    """A path's contexts may span documents: each document's steps run
    once for all rows."""
    before = fallbacks()
    result = run("for $x in (<a/>, <b/>) return $x/self::a")
    assert [node.name for node in result] == ["a"]
    assert fallbacks() == before


def test_a_quantifier_stops_at_the_deciding_binding():
    """Bindings run one at a time; nothing after the deciding one is
    evaluated (or raises), and the counter is charged what the nested
    loop charges."""
    before = fallbacks()
    assert run("some $x in (1, 2, 'a') satisfies $x = 2") == [True]
    assert run("every $x in (1, 2, 'a') satisfies $x = 2") == [False]
    assert fallbacks() == before
    for text in ("some $x in (1, 2, 3, 4, 5, 6, 7) satisfies $x = 5",
                 "every $x in (1, 2, 3, 4, 5, 6, 7) satisfies $x < 4",
                 "some $x in (1, 2, 3) satisfies $x = 9"):
        lifted, nested = DynamicContext(), DynamicContext()
        module = parse_query(text)
        assert Evaluator(module).run(lifted) \
            == ReferenceEvaluator(module).run(nested)
        assert lifted.counter.mark() == nested.counter.mark()


def test_every_axis_is_lifted():
    """A sibling step with a positional predicate in a loop body runs
    in the lifted plan: a scan per context, the predicate one loop over
    every context's candidates."""
    people, _auctions = generate_pair(0.01)
    module = parse_query('for $p in doc("people.xml")//person '
                         "return $p/following-sibling::person[1]/child::name")
    evaluator = Evaluator(module)
    env = DynamicContext(resolve_doc=lambda uri: people)
    before = fallbacks()
    first = evaluator.run(env)
    assert evaluator._plans[id(module.body)][1][:2] == ("_loop_lifted", None)
    assert [node.pre for node in first] == [
        node.pre for node in ReferenceEvaluator(module).run(env)]
    assert len(first) == 24
    assert fallbacks() == before


def test_evaluate_is_a_one_row_frame():
    """There are no scalar rules: a top-level expression, a loop body
    and a predicate all run over frames."""
    assert not [name for name in dir(Evaluator) if name.startswith("_eval")]


def test_a_join_reading_an_outer_variable_runs_once_per_outer_binding(
        monkeypatch):
    """In a loop nested in a loop, the invariant side of the inner join
    reads the outer variable (a column): the join runs once per outer
    binding, one value-index probe each, and gives the nested loop's
    items."""
    probes = []
    probe = evaluator_module.probe_atoms
    monkeypatch.setattr(evaluator_module, "probe_atoms",
                        lambda *args: probes.append(args) or probe(*args))
    people, auctions = generate_pair(0.02)
    docs = {"people.xml": people, "auctions.xml": auctions}
    module = parse_query(
        'for $t in doc("people.xml")//person[position() <= 5] '
        'return for $e in doc("auctions.xml")//open_auction '
        "return if ($e/child::seller/attribute::person = $t/attribute::id) "
        "then $e else ()")
    before = fallbacks()
    joined = Evaluator(module).run(
        DynamicContext(resolve_doc=docs.__getitem__))
    assert len(probes) == 5
    assert fallbacks() == before
    assert [node.pre for node in joined] == [
        node.pre for node in ReferenceEvaluator(module).run(
            DynamicContext(resolve_doc=docs.__getitem__))]
    assert joined


def test_nested_loops_lift_together(scans):
    """A loop inside a loop body runs once for every outer binding: the
    iteration tag is the pair."""
    before = fallbacks()
    query = ('for $p in doc("people.xml")//person '
             "return for $n in $p/child::name return $n/child::text()")
    small = evaluate(query, 0.01)
    few = len(scans)
    large = evaluate(query, 0.04)
    assert len(large) > 2 * len(small) > 0
    assert len(scans) - few == few
    assert fallbacks() == before


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

"""The paper's equivalence criterion: Q(D) = Q'(D) under deep-equal
for every decomposition the strategies produce.

Every query in the battery is executed under all four strategies
against the same federation; all results must be deep-equal to the
data-shipping baseline (which evaluates everything locally).
"""

import runpy
from pathlib import Path

import pytest

from repro.decompose import Strategy
from repro.system.federation import Federation
from repro.xquery.xdm import sequences_deep_equal, serialize_sequence

from tests.conftest import COURSE_XML, Q2, STUDENTS_XML

QUERIES = [
    # plain remote path
    'doc("xrpc://A/students.xml")/child::people/child::person/child::name',
    # predicate with value join against second remote doc
    Q2,
    # aggregation over remote data
    'count(doc("xrpc://A/students.xml")//person)',
    # existential comparison across peers
    ('some $e in doc("xrpc://B/course42.xml")//exam satisfies '
     '$e/@id = "s1"'),
    # constructor wrapping remote nodes
    ('element all { doc("xrpc://A/students.xml")//name }'),
    # order by over remote data
    ('for $p in doc("xrpc://A/students.xml")//person '
     "order by $p/name descending return $p/id"),
    # union across both peers
    ('(doc("xrpc://A/students.xml")//name union '
     'doc("xrpc://B/course42.xml")//grade)'),
    # nested FLWOR with arithmetic
    ('for $e in doc("xrpc://B/course42.xml")//exam '
     "let $g := $e/grade return if (count($g) > 0) then $e/@id else ()"),
    # reverse axis on remote data (only projection may decompose)
    ('doc("xrpc://A/students.xml")//tutor/parent::person/id'),
    # quantified + string functions
    ('for $p in doc("xrpc://A/students.xml")//person '
     'where starts-with($p/name, "A") return $p/name'),
]


@pytest.fixture(scope="module")
def federation():
    fed = Federation()
    fed.add_peer("A").store("students.xml", STUDENTS_XML)
    fed.add_peer("B").store("course42.xml", COURSE_XML)
    fed.add_peer("local")
    return fed


@pytest.mark.parametrize("query", QUERIES)
def test_all_strategies_deep_equal(federation, query):
    baseline = federation.run(query, at="local",
                              strategy=Strategy.DATA_SHIPPING)
    for strategy in (Strategy.BY_VALUE, Strategy.BY_FRAGMENT,
                     Strategy.BY_PROJECTION):
        result = federation.run(query, at="local", strategy=strategy)
        assert sequences_deep_equal(baseline.items, result.items), (
            f"{strategy.value} diverges on {query!r}: "
            f"{baseline.items!r} vs {result.items!r}")


@pytest.mark.parametrize("query", QUERIES[:4])
def test_ablations_preserve_equivalence(federation, query):
    baseline = federation.run(query, at="local",
                              strategy=Strategy.DATA_SHIPPING)
    for kwargs in ({"bulk_rpc": False}, {"code_motion": False},
                   {"let_sinking": False}):
        result = federation.run(query, at="local",
                                strategy=Strategy.BY_FRAGMENT, **kwargs)
        assert sequences_deep_equal(baseline.items, result.items), kwargs


def test_property_random_documents():
    """Property-style: random student rosters must give deep-equal
    results across strategies (node identity exercised by the join)."""
    from hypothesis import given, settings, strategies as st

    @st.composite
    def rosters(draw):
        count = draw(st.integers(2, 6))
        persons = []
        for index in range(count):
            tutor = draw(st.integers(0, count - 1))
            persons.append(
                f"<person><name>n{index}</name>"
                f"<tutor>n{tutor}</tutor><id>s{index}</id></person>")
        exams = "".join(
            f'<exam id="s{draw(st.integers(0, count - 1))}">'
            f"<grade>g{i}</grade></exam>"
            for i in range(draw(st.integers(1, 5))))
        return (f"<people>{''.join(persons)}</people>",
                f"<enroll>{exams}</enroll>")

    @given(rosters())
    @settings(max_examples=15, deadline=None)
    def check(pair):
        students, course = pair
        fed = Federation()
        fed.add_peer("A").store("students.xml", students)
        fed.add_peer("B").store("course42.xml", course)
        fed.add_peer("local")
        baseline = fed.run(Q2, at="local",
                           strategy=Strategy.DATA_SHIPPING)
        for strategy in (Strategy.BY_VALUE, Strategy.BY_FRAGMENT,
                         Strategy.BY_PROJECTION):
            result = fed.run(Q2, at="local", strategy=strategy)
            assert sequences_deep_equal(baseline.items, result.items)

    check()


#: The language tour's two documents: a library whose books reference
#: their authors by id, and loans that reference the books.
TOUR = runpy.run_path(str(Path(__file__).resolve().parents[2]
                          / "examples" / "language_tour.py"))

#: ``fn:id`` / ``fn:idref`` applied to a book node shipped as a
#: parameter to the loans peer: every book has its author, so every
#: loan survives the second predicate.
SHIPPED_ID_QUERIES = {
    "id": (f'for $b in {TOUR["LIB"]}//book return {TOUR["LOAN"]}'
           f"//loan[@book = $b/@id][id($b/author/@ref, $b)]"),
    "idref": (f'for $b in {TOUR["LIB"]}//book return {TOUR["LOAN"]}'
              f'//loan[@book = $b/@id][exists(idref("a1", $b))]'),
}


@pytest.fixture(scope="module")
def tour_federation():
    fed = Federation()
    fed.add_peer("A").store("library.xml", TOUR["LIBRARY"])
    fed.add_peer("B").store("loans.xml", TOUR["LOANS"])
    fed.add_peer("local")
    return fed


@pytest.mark.parametrize("query", SHIPPED_ID_QUERIES)
@pytest.mark.parametrize("strategy", [
    Strategy.DATA_SHIPPING, Strategy.BY_VALUE, Strategy.BY_FRAGMENT,
    pytest.param(Strategy.BY_PROJECTION, marks=pytest.mark.xfail(
        strict=True, reason="by-projection answers () for fn:id / "
        "fn:idref on a node shipped as a parameter (its projection: "
        "paths/relpath.py _id_element_pres / _idref_element_pres)")),
], ids=lambda strategy: strategy.value)
def test_id_on_a_shipped_node_finds_every_loan(tour_federation, strategy,
                                                query):
    result = tour_federation.run(SHIPPED_ID_QUERIES[query], at="local",
                                 strategy=strategy)
    assert serialize_sequence(result.items) == (
        '<loan book="b1" reader="r1"/> <loan book="b3" reader="r2"/> '
        '<loan book="b3" reader="r1"/>')


#: ``deep-equal`` on a node shipped as a parameter compares its child
#: elements and attributes, not only its text: the three ``<x>`` differ
#: in both, so each equals only itself.
DEEP_EQUAL_A = '<r><x><a/>t</x><x><b/>t</x><x k="1">t</x></r>'
DEEP_EQUAL_B = '<l><i n="1"/></l>'
DEEP_EQUAL_XS = 'doc("xrpc://A/d.xml")/child::r/child::x'
DEEP_EQUAL_IS = 'doc("xrpc://B/e.xml")/child::l/child::i'


@pytest.fixture(scope="module")
def deep_equal_federation():
    fed = Federation()
    fed.add_peer("A").store("d.xml", DEEP_EQUAL_A)
    fed.add_peer("B").store("e.xml", DEEP_EQUAL_B)
    fed.add_peer("local")
    return fed


@pytest.mark.parametrize("strategy", [*Strategy, "auto"],
                         ids=lambda strategy: getattr(strategy, "value",
                                                      strategy))
def test_deep_equal_on_shipped_nodes_sees_their_children(
        deep_equal_federation, strategy):
    pairs = deep_equal_federation.run(
        f"count(for $x in {DEEP_EQUAL_XS}, $y in {DEEP_EQUAL_XS} "
        f"return {DEEP_EQUAL_IS}[deep-equal($x, $y)])",
        at="local", strategy=strategy)
    assert pairs.items == [3]
    bare = deep_equal_federation.run(
        f"for $x in {DEEP_EQUAL_XS} "
        f"return {DEEP_EQUAL_IS}[deep-equal($x, <x>t</x>)]",
        at="local", strategy=strategy)
    assert bare.items == []

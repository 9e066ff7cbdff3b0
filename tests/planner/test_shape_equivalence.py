"""Property (vii) of ROADMAP item 1: planning by shape changes nothing
a run can observe.

The whole-query generator of ``tests/xquery/test_flwor_differential.py``
draws a query that compares against literals; two to four *sibling*
texts are derived that differ from it only in those literals — another
value of the kind (one shape, another binding), the same value again,
another kind (``2`` / ``2.0`` / ``"2"``: another shape), ``1e3``, a
negative number (a unary minus: the literal stays in the shape). The
two documents live on two peers, the siblings are planned back to back
on one federation, in every order, under each of the four strategies
and ``auto``. Two things must hold for every run:

* the answer is the text's own: equal to ``data-shipping`` on a fresh
  federation (or the same error class);
* a warm shape ≡ a cold plan of the same text: a second federation
  runs the same sequence with each text made a shape of its own (a
  leading comment makes the scan decline, so it is parsed, decomposed,
  lowered and compiled separately, as every text was before shapes
  were shared) — same pick, same ``RunStats.message_bytes``, same
  answer, run by run, calibration feedback included.

A family that decomposition gets wrong with nothing shared (a member,
planned alone, ≠ its oracle) is property (i)'s find: it is counted as a
hypothesis event and dropped, and kept as a regression case at the
bottom. Tier-1 runs a small seeded sample; CI's ``fuzz`` job 400
unseeded examples (one example is some hundred federated runs). A
counterexample of *this* property becomes a plain regression test.
"""

from itertools import permutations

import pytest
from hypothesis import assume, event, given, strategies as st

from repro.errors import ReproError
from repro.system.federation import Federation
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize
from repro.xquery.prepared import scan
from repro.xquery.xdm import serialize_sequence

from tests.conftest import fuzz_settings
from tests.xquery.test_flwor_differential import _documents, _queries
from tests.xquery.test_prepared import _literal_end

STRATEGIES = ("data-shipping", "by-value", "by-fragment", "by-projection",
              "auto")

#: What a sibling may hold where the drawn query held a literal: the
#: document pool's values as each kind, ``1e3``, negatives.
_replacements = st.sampled_from([
    "1", "2", "10", "3", "2.0", "2.5", "10.00", "1e3", '"2"', '"a"', '"b"',
    '"x y"', "-1", "-2.5"])


def _on_peers(text: str) -> str:
    """The generator's ``doc("d1")`` / ``doc("d2")`` as documents of
    two peers."""
    return (text.replace('doc("d1")', 'doc("xrpc://A/d1")')
            .replace('doc("d2")', 'doc("xrpc://B/d2")'))


@st.composite
def _families(draw):
    """2-4 texts that differ only in comparison literals."""
    text = draw(_queries().filter(lambda text: scan(text).slots))
    slots = scan(text).slots
    family = [text]
    for _ in range(draw(st.integers(1, 3))):
        sibling, shift = text, 0
        for offset, _kind in slots:
            start, end = offset + shift, _literal_end(text, offset) + shift
            # Mostly another literal; sometimes the same one again.
            source = (draw(_replacements) if draw(st.integers(0, 3))
                      else text[offset:end - shift])
            sibling = sibling[:start] + source + sibling[end:]
            shift += len(source) - (end - start)
        family.append(sibling)
    return [_on_peers(member) for member in family]


def _federation(documents) -> Federation:
    """Two peers holding the documents as shipping them would read
    (stored from text: under a document node, like a shipped copy)."""
    federation = Federation()
    federation.add_peer("A").store("d1", serialize(documents[0]))
    federation.add_peer("B").store("d2", serialize(documents[1]))
    federation.add_peer("local")
    return federation


def _apart(index: int, text: str) -> str:
    """``text`` as a shape of its own: the scan declines a comment."""
    return f"(: {index} :) {text}"


def _observe(federation: Federation, text: str, strategy: str) -> tuple:
    """What a run shows: the answer (or the error class), the pick and
    the message bytes."""
    try:
        result = federation.run(text, at="local", strategy=strategy)
    except ReproError as error:
        return ("error", type(error).__name__)
    return (serialize_sequence(result.items), result.stats.plan.strategy,
            result.stats.message_bytes)


def check_family(family: list[str], documents) -> None:
    oracle, alone = _federation(documents), _federation(documents)
    expected = {text: _observe(oracle, text, "data-shipping")[0]
                for text in family}
    if any(_observe(alone, _apart(index, text), strategy)[0]
           != expected[text] for strategy in STRATEGIES
           for index, text in enumerate(family)):
        # Decomposition gets a member wrong with nothing shared: a find
        # of property (i) (kept at the bottom), not of this
        # property, which could say nothing about such a family.
        event("decomposed ≠ data-shipping with no shape shared")
        assume(False)
    for order in permutations(range(len(family))):
        shared, apart = _federation(documents), _federation(documents)
        for strategy in STRATEGIES:
            for index in order:
                text = family[index]
                warm = _observe(shared, text, strategy)
                cold = _observe(apart, _apart(index, text), strategy)
                assert warm == cold, (strategy, order, text)
                assert warm[0] == expected[text], (strategy, order, text)
        # The siblings were shared (or this tested nothing) ...
        assert shared.planner.snapshot()["cached_plans"] \
            == len({scan(text).key for text in family})
        # ... and the commented texts were not.
        assert apart.planner.snapshot()["cached_plans"] == len(family)


@given(family=_families(), documents=_documents)
@fuzz_settings(10, hunt=400)
def test_planning_by_shape_changes_nothing_observable(family, documents):
    check_family(family, documents)


# -- counterexamples ------------------------------------------------------------
#
# What the long hunts found (seeds 20261005-7) is decomposition's, and
# older than shapes: on each of them a warm shape ≡ a cold plan under
# every strategy — and one strategy ≠ data-shipping either way, until
# the decomposer is fixed and the case moves to ``_FIXED``.

_FOUND = {
    # by-projection answers () for the parent of a shipped root: the
    # document node is not part of a projected fragment.
    "root-parent": (
        "by-projection", ("<a/>", "<a/>"),
        'for $x in doc("xrpc://B/d2")/descendant-or-self::node()/child::* '
        'order by doc("xrpc://A/d1")/descendant::*[. = 1][last()] '
        'descending return $x/parent::node()'),
    # by-fragment admits a horizontal axis inside a predicate on a
    # shipped node: every fragment root has no following sibling.
    "sibling-in-predicate": (
        "by-fragment", ("<a/>", "<a><a/><a/></a>"),
        'for $x at $i in doc("xrpc://B/d2")/descendant-or-self::node()'
        '/child::* return ($x/self::*[not(./following-sibling::*)], '
        'doc("xrpc://A/d1")/descendant::*/child::*/child::*[. = 1]'
        '[last()])'),
}


#: Finds that are fixed: plain regression cases now.
_FIXED = {
    # by-value could not marshal a comment node (XrpcMarshalError): the
    # message format had no wrapper for one (ROADMAP item 1(c)).
    "comment-by-value": (
        "by-value", ("<a/>", "<a><!--1--></a>"),
        'for $x in doc("xrpc://A/d1")/descendant-or-self::node()/child::* '
        'return element r {(doc("xrpc://B/d2")/descendant::node(), '
        'doc("xrpc://A/d1")/descendant::*[./attribute::* = 1][1])}'),
}


@pytest.mark.parametrize("case", {**_FOUND, **_FIXED})
def test_found_queries_run_alike_shared_and_apart(case):
    _strategy, sources, text = {**_FOUND, **_FIXED}[case]
    documents = [parse_document(source) for source in sources]
    family = [text, text.replace("= 1]", "= 2]")]
    for order in permutations(range(2)):
        shared, apart = _federation(documents), _federation(documents)
        for strategy in STRATEGIES:
            for index in order:
                assert _observe(shared, family[index], strategy) == _observe(
                    apart, _apart(index, family[index]), strategy)
        assert shared.planner.snapshot()["cached_plans"] == 1


@pytest.mark.parametrize("case", _FOUND)
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1(i): a condition "
                   "the decomposer is missing, found by this generator")
def test_found_queries_equal_data_shipping(case):
    strategy, sources, text = _FOUND[case]
    federation = _federation([parse_document(source) for source in sources])
    assert _observe(federation, text, strategy)[0] \
        == _observe(federation, text, "data-shipping")[0]


@pytest.mark.parametrize("case", _FIXED)
def test_fixed_queries_equal_data_shipping(case):
    strategy, sources, text = _FIXED[case]
    federation = _federation([parse_document(source) for source in sources])
    answer = _observe(federation, text, strategy)[0]
    assert answer == _observe(federation, text, "data-shipping")[0]
    assert "<!--1-->" in answer

"""A round trip's response key is exact: over generated Bulk RPC calls,
two requests get equal keys if and only if their texts are equal.

The key is what ``_Run._call_peer`` looks up: ``response_key`` of
``request_key(head, calls, marshal)``. When every parameter item is an
atomic value that is the head and each item's ``(type, lexical)``
pair, with nothing marshalled; when one is a node it is the marshalled
request's ``RequestMessage.key``. The text is the marshalled request's
``to_xml()``, whatever the key took.

The second request of a pair has the first's head, or some of its
parts and new draws for the rest (a head object of its own, where the
first's is interned). Its calls are the first's, the first's with each
node taken from a twin document parsed from the same text, the first's
with one atomic moved to another member of its group in :data:`GROUPS`
(``-0.0`` and ``0.0``, NaN, the infinities, ``True`` and ``1``, ``"1"``
and ``UntypedAtomic("1")``, strings that need escaping), or new ones.
An item is such an atomic or an element, attribute, text or document
node; a request holds one to three calls, under each semantics.
``test_items_whose_texts_meet`` pins those pairs one by one."""

import pytest
from hypothesis import given, strategies as st

from repro.runtime.cache import request_key, response_key
from repro.xmldb.node import Node
from repro.xmldb.parser import parse_document
from repro.xquery.context import StaticContext
from repro.xquery.prepared import PreparedTable
from repro.xquery.xdm import UntypedAtomic
from repro.xrpc.marshal import marshal_calls
from repro.xrpc.messages import RequestHead

from tests.conftest import fuzz_settings

#: Atomic values in groups whose members' texts meet or nearly meet:
#: one lexical under several types, or several values written alike.
GROUPS = [[0.0, -0.0], [1, 1.0, "1", UntypedAtomic("1")],
          [True, "true", UntypedAtomic("true"), 1],
          [float("nan"), "NaN", UntypedAtomic("NaN")],
          [float("inf"), float("-inf"), "INF", "-INF"],
          [0.5, "0.5", 1e21, 10 ** 21, "1e+21"],
          ["a<b", UntypedAtomic("a<b"), "a&lt;b", "&amp;", "&"],
          ["\r\n", "\n", "\r", "", '"', ">"]]
SEMANTICS = ["by-value", "by-fragment", "by-projection"]
TEXT = '<r a="1"><p id="x">t&lt;</p><p id="y"><q/>u</p>v</r>'
#: The same document twice: a node of one and its twin in the other
#: write the same text.
DOCUMENTS = [parse_document(TEXT, uri=f"twin{n}.xml") for n in (1, 2)]
QUERIES = ["$x", "<r>{$x}</r> < 2"]
NAMES = [["x"], ["x", "y"], ["y", "x"]]
STATICS = [StaticContext(),
           StaticContext(current_datetime="2009-03-29T12:00:01Z")]
PATHS = [None, [], ["child::p"], ["attribute::id", "a<b"]]
#: Interned heads, as a federation keeps them.
HEADS = PreparedTable()


def _token():
    """An item as drawn: ``(group, member)`` of :data:`GROUPS`, or
    ``(None, pre)`` of a node of the first document."""
    return st.one_of(
        st.tuples(st.integers(0, len(GROUPS) - 1), st.integers(0, 5)),
        st.tuples(st.none(), st.integers(0, len(DOCUMENTS[0]) - 1)))


def _value(token: tuple, twin: bool = False):
    """The item a token stands for: the atomic (a float as a new
    object, so no NaN is its own twin), or the node (in the twin
    document when ``twin``)."""
    group, at = token
    if group is None:
        return Node(DOCUMENTS[twin], at)
    value = GROUPS[group][at % len(GROUPS[group])]
    return float(repr(value)) if isinstance(value, float) else value


def _lookalike(data, tokens: list[list[list]]) -> list[list[list]]:
    """``tokens`` with one atomic moved to another member of its group."""
    places = [(c, p, i) for c, call in enumerate(tokens)
              for p, sequence in enumerate(call)
              for i, (group, _at) in enumerate(sequence)
              if group is not None]
    if not places:
        return tokens
    c, p, i = data.draw(st.sampled_from(places), label="moved item")
    other = [[list(sequence) for sequence in call] for call in tokens]
    other[c][p][i] = (tokens[c][p][i][0],
                      data.draw(st.integers(0, 5), label="member"))
    return other


@st.composite
def _head(draw) -> dict:
    return {"query": draw(st.sampled_from(QUERIES)),
            "param_names": draw(st.sampled_from(NAMES)),
            "static": draw(st.sampled_from(STATICS)),
            "used_paths": draw(st.sampled_from(PATHS)),
            "returned_paths": draw(st.sampled_from(PATHS))}


def _calls(names: list[str]):
    sequence = st.lists(_token(), max_size=3)
    return st.lists(st.lists(sequence, min_size=len(names),
                             max_size=len(names)), min_size=1, max_size=3)


def _request(parts: dict, tokens: list[list[list]], semantics: str,
             interned: bool, twin: bool = False):
    """The request's key, as ``_call_peer`` makes it, and its text."""
    values = [[[_value(token, twin) for token in sequence]
               for sequence in call] for call in tokens]
    head = RequestHead(parts["query"], parts["param_names"],
                       parts["static"].to_attributes(),
                       parts["used_paths"], parts["returned_paths"])
    if interned:
        head = HEADS.intern(head, lambda: head)
    calls = [list(zip(parts["param_names"], call)) for call in values]

    def marshal():
        bundle = marshal_calls(calls, semantics)
        return head.message(bundle.calls, bundle.fragments)

    request, message = request_key(head, calls, marshal)
    return (response_key("B", semantics, request, shard_epoch=3),
            (message or marshal()).to_xml())


@given(st.data())
@fuzz_settings(200)
def test_keys_are_equal_exactly_when_texts_are(data):
    semantics = data.draw(st.sampled_from(SEMANTICS), label="semantics")
    first = data.draw(_head(), label="head")
    tokens = data.draw(_calls(first["param_names"]), label="calls")
    how = data.draw(st.sampled_from(["lookalike", "twin", "same", "new"]),
                    label="second calls")
    # The calls' arity is the names': only new calls take other ones.
    names = [names for names in NAMES if how == "new"
             or len(names) == len(first["param_names"])]
    second = first if data.draw(st.booleans(), label="same head") else {
        name: part if data.draw(st.booleans(), label=f"same {name}")
        else data.draw(st.sampled_from(
            {"query": QUERIES, "param_names": names, "static": STATICS,
             "used_paths": PATHS, "returned_paths": PATHS}[name]),
            label=f"new {name}")
        for name, part in first.items()}
    other = (data.draw(_calls(second["param_names"]), label="new calls")
             if how == "new" else _lookalike(data, tokens)
             if how == "lookalike" else tokens)
    one_key, one_text = _request(first, tokens, semantics, interned=True)
    other_key, other_text = _request(second, other, semantics,
                                     interned=False, twin=how == "twin")
    assert (one_key == other_key) == (one_text == other_text)
    if one_key == other_key:
        assert hash(one_key) == hash(other_key)


def _element(twin: bool) -> Node:
    return Node(DOCUMENTS[twin], 1)


#: ``(first, second, their texts are equal)``: the item of one call
#: among several, in a pair of requests alike in everything else.
PAIRS = [
    (0.0, -0.0, True),                  # both written "0"
    (float("nan"), float("nan"), True),
    (float("inf"), float("inf"), True),
    (float("inf"), float("-inf"), False),
    (True, 1, False),
    (1, 1.0, False),
    ("1", UntypedAtomic("1"), False),
    ("a<b", "a<b", True),
    ("a&lt;b", "a<b", False),
    ("\r", "\n", False),
    (_element(False), _element(True), True),
    (_element(False), _element(False).string_value(), False),
]


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("first, second, equal", PAIRS, ids=repr)
def test_items_whose_texts_meet(first, second, equal, semantics):
    keys, texts = set(), set()
    for item in (first, second):
        head = RequestHead("$x", ["x"], StaticContext().to_attributes())
        calls = [[("x", [item, "&"])], [("x", [])], [("x", [2])]]

        def marshal():
            bundle = marshal_calls(calls, semantics)
            return head.message(bundle.calls, bundle.fragments)

        request, message = request_key(head, calls, marshal)
        keys.add(response_key("B", semantics, request))
        texts.add((message or marshal()).to_xml())
    assert (len(keys) == 1) == (len(texts) == 1) == equal

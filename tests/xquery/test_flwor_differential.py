"""Whole-query differential fuzz: the loop-lifted engine against the
nested loops it replaced (first slice of ROADMAP item 1(ii)).

A hypothesis strategy builds well-scoped queries over ``xquery/ast.py``
— ``for`` (with and without ``at $i``), ``let``, ``if``, ``order by``
(one and two specs, either direction), ``some`` / ``every``, element and
attribute constructors, nested two deep with shadowing; bodies made of
paths over child, attribute, self, parent, descendant,
descendant-or-self and following-sibling rooted at a loop variable, a
``let`` variable or ``doc()``, with compiled and positional predicates;
binding sequences with duplicates, atomics and nodes of two documents —
prints them with ``xquery/pretty.py`` and runs the text through both
engines over two generated documents (the ``xml_trees()`` shape with
duplicate values and mixed content).

Property: ``Evaluator`` ≡ ``ReferenceEvaluator`` (every FLWOR the nested
loop, every path the per-node walker) on the result items — ``(doc,
pre)`` for stored nodes, the serialisation for constructed ones — or on
the error class. Tier-1 runs a small seeded sample; CI's ``fuzz`` job
the ``long`` profile. A counterexample becomes a plain regression case
in ``tests/xquery/test_evaluator.py``.
"""

from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.xmldb.document import DocumentBuilder
from repro.xmldb.node import Node
from repro.xmldb.serializer import serialize_node
from repro.xquery.ast import (
    ArithmeticExpr, ComparisonExpr, ConstructorExpr, ContextItemExpr,
    EmptySequence, ForExpr, FunCall, IfExpr, LetExpr, Literal, LogicalExpr,
    OrderByExpr, OrderSpec, PathExpr, QuantifiedExpr, RangeExpr,
    SequenceExpr, Step, VarRef,
)
from repro.xquery.context import DynamicContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_query
from repro.xquery.pretty import pretty

from tests.conftest import fuzz_settings
from tests.oracle.xquery_reference_walker import ReferenceEvaluator

#: Few values, so documents repeat them: joins match, order-by keys tie.
_values = st.sampled_from(["1", "2", "10", "a", "b", " 2", "x y"])


@st.composite
def _trees(draw, depth=3):
    """``test_indexed_equivalence.xml_trees`` (same names, attributes
    and node kinds, element-rooted or under a document node) with more
    elements per level and values from the small pool: mixed content
    with duplicate values, and enough nodes for a loop to bind."""
    builder = DocumentBuilder("prop.xml")
    with_document_node = draw(st.booleans())

    def element(level: int) -> None:
        builder.start_element(draw(st.sampled_from(["a", "b", "c", "data"])))
        for name in ("at0", draw(st.sampled_from(["at1", "id", "ref"])))[
                :draw(st.integers(0, 2))]:
            builder.attribute(name, draw(_values))
        for _ in range(draw(st.integers(0, 4 if level < depth else 0))):
            kind = draw(st.sampled_from([0, 0, 0, 0, 1, 2]))
            if kind == 0 and level < depth:
                element(level + 1)
            elif kind == 1:
                builder.comment(draw(_values))
            else:
                builder.text(draw(_values))
        builder.end_element()

    if with_document_node:
        builder.start_document()
    element(0)
    if with_document_node:
        builder.end_document()
    return builder.finish()


_documents = st.tuples(_trees(), _trees())

#: Few names, so an inner binder often shadows an outer one.
_names = st.sampled_from(["x", "y", "z"])
_tests = st.sampled_from(["*", "*", "*", "node()", "node()", "a", "b",
                          "text()"])
_attribute_tests = st.sampled_from(["*", "*", "at0", "id"])
_axes = st.sampled_from(["child", "child", "child", "attribute", "self",
                         "parent", "descendant", "descendant",
                         "descendant-or-self", "following-sibling"])
_literals = st.sampled_from([1, 2, 10, 2.5, "a", "1", "b"]).map(Literal)
_comparisons = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


def _doc(name: str) -> FunCall:
    return FunCall("doc", [Literal(name)])


def _position(op: str, k: int) -> ComparisonExpr:
    return ComparisonExpr(op, FunCall("position", []), Literal(k))


@st.composite
def _predicates(draw) -> list:
    """None, a compiled shape, a positional shape, or ``[p][k]``."""
    context = ContextItemExpr()
    compiled = st.one_of(
        st.builds(lambda test: PathExpr(context, [Step("child", test)]),
                  _tests),
        st.builds(lambda test, op, value: ComparisonExpr(
            op, PathExpr(context, [Step("attribute", test)]), value),
            _attribute_tests, _comparisons, _literals),
        st.builds(lambda op, value: ComparisonExpr(op, context, value),
                  _comparisons, _literals),
        st.builds(lambda test: FunCall("not", [PathExpr(
            context, [Step("following-sibling", test)])]), _tests))
    positional = st.one_of(
        st.integers(1, 3).map(Literal),
        st.just(FunCall("last", [])),
        st.builds(_position, st.sampled_from(["<", "=", ">="]),
                  st.integers(1, 3)))
    shape = draw(st.integers(0, 11))
    if shape < 8:
        return []
    shape -= 4
    if shape == 4:
        return [draw(compiled)]
    if shape == 5:
        return [draw(positional)]
    if shape == 6:
        return [draw(compiled), draw(positional)]
    return [draw(positional), draw(compiled)]


@st.composite
def _steps(draw) -> list:
    steps = []
    for _ in range(draw(st.sampled_from([1, 1, 1, 2, 2, 3]))):
        axis = draw(_axes)
        test = draw(_attribute_tests if axis == "attribute" else _tests)
        steps.append(Step(axis, test, draw(_predicates())))
    return steps


@st.composite
def _paths(draw, scope: tuple) -> PathExpr:
    """A path rooted at a variable in scope (mostly) or at ``doc()``."""
    if scope and draw(st.integers(0, 3)):
        return PathExpr(VarRef(draw(st.sampled_from(scope))), draw(_steps()))
    # From a document, start downwards: most other steps find nothing.
    return PathExpr(_doc(draw(st.sampled_from(["d1", "d2"]))), [
        Step(draw(st.sampled_from(["descendant", "descendant-or-self"])),
             draw(_tests), draw(_predicates()))] + draw(_steps())[1:])


@st.composite
def _sequences(draw, scope: tuple):
    """A binding sequence: nodes of one document, of two, duplicates,
    atomics, or a mix."""
    kind = draw(st.integers(-4, 5))
    if kind <= 1:  # every element / node of a document: many bindings
        return PathExpr(_doc(draw(st.sampled_from(["d1", "d2"]))), [
            Step("descendant-or-self", "node()"),
            Step("child", draw(st.sampled_from(["*", "node()", "a"])))])
    if kind == 2:
        return draw(_paths(scope))
    if kind == 3:
        return RangeExpr(Literal(1), Literal(draw(st.integers(1, 3))))
    items = draw(st.lists(st.one_of(_paths(scope), _literals),
                          min_size=1, max_size=3))
    if kind == 5:
        items.append(items[0])  # the same bindings served twice
    return SequenceExpr(items)


@st.composite
def _exprs(draw, scope: tuple = (), depth: int = 0, loops: int = 0):
    """A well-scoped expression; ``loops`` counts the binding loops
    around it (nested two deep at most)."""
    leaf = depth >= 3
    choice = draw(st.integers(0, 4 if leaf else 15)
                  if draw(st.booleans()) else st.integers(0, 2))
    sub = lambda inner=scope, nested=loops: _exprs(  # noqa: E731
        inner, depth + 1, nested)
    if choice <= 2:
        return draw(_paths(scope))
    if choice == 3:
        return (VarRef(draw(st.sampled_from(scope))) if scope
                else draw(_literals))
    if choice == 4:
        return draw(st.one_of(_literals, st.just(EmptySequence())))
    if choice == 5:
        return ComparisonExpr(draw(st.one_of(_comparisons, st.just("is"))),
                              draw(sub()), draw(sub()))
    if choice == 6:
        return IfExpr(draw(sub()), draw(sub()), draw(sub()))
    if choice == 7:
        return LogicalExpr(draw(st.sampled_from(["and", "or"])),
                           draw(sub()), draw(sub()))
    if choice == 8:
        var = draw(_names)
        return LetExpr(var, draw(sub()), draw(sub(scope + (var,))))
    if choice == 9:
        return SequenceExpr([draw(sub()), draw(sub())])
    if choice == 10:
        return FunCall(draw(st.sampled_from(["count", "string", "data",
                                             "number", "exists", "not"])),
                       [draw(sub())])
    if choice == 11:
        content = [draw(sub()) for _ in range(draw(st.integers(0, 2)))]
        if draw(st.booleans()):
            content.insert(0, ConstructorExpr("attribute", "k", None,
                                              [draw(sub())]))
        return ConstructorExpr("element", "r", None,
                               [SequenceExpr(content)] if content else [])
    if choice == 12:
        return ArithmeticExpr(draw(st.sampled_from(["+", "*", "div"])),
                              FunCall("count", [draw(sub())]), draw(sub()))
    if loops >= 2:
        return draw(_paths(scope))
    var = draw(_names)
    seq = draw(_sequences(scope))
    inner = scope + (var,)
    if choice == 13:
        pos_var = draw(st.one_of(st.none(), st.just("i")))
        bound = inner + (pos_var,) if pos_var else inner
        return ForExpr(var, seq, draw(sub(bound, loops + 1)), pos_var)
    if choice == 14:
        specs = [OrderSpec(draw(sub(inner, loops + 1)), draw(st.booleans()))
                 for _ in range(draw(st.integers(1, 2)))]
        return OrderByExpr(var, seq, specs, draw(sub(inner, loops + 1)))
    return QuantifiedExpr(draw(st.sampled_from(["some", "every"])), var,
                          seq, draw(sub(inner, loops + 1)))


@st.composite
def _queries(draw):
    """A query with a binding loop at its root (the interesting case),
    as text."""
    var = draw(_names)
    seq = draw(_sequences(()))
    body = draw(_exprs((var,), depth=1, loops=1))
    return pretty(draw(st.sampled_from([
        ForExpr(var, seq, body),
        ForExpr(var, seq, body, "i"),
        OrderByExpr(var, seq, [OrderSpec(draw(_exprs((var,), 2, 1)),
                                         draw(st.booleans()))], body),
    ])))


def outcome(engine, text: str, documents) -> tuple:
    """What evaluating ``text`` gives: the items as comparable keys, or
    the error class."""
    store = dict(zip(("d1", "d2"), documents))
    env = DynamicContext(resolve_doc=store.__getitem__)
    try:
        items = engine(parse_query(text)).run(env)
    except ReproError as error:
        return ("error", type(error).__name__)
    keys = []
    for item in items:
        if not isinstance(item, Node):
            keys.append((type(item).__name__, repr(item)))
        elif item.doc in documents:
            keys.append((documents.index(item.doc), item.pre))
        else:
            keys.append(("built", item.kind, item.name, item.value
                         if item.size == 0 else serialize_node(item)))
    return ("items", keys)


@given(text=_queries(), documents=_documents)
@fuzz_settings(250)
def test_lifted_flwor_equals_nested_loop(text, documents):
    assert outcome(Evaluator, text, documents) \
        == outcome(ReferenceEvaluator, text, documents), text

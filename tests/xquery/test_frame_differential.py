"""Whole-query differential fuzz of the frame evaluator on the shapes
that used to fall back to the scalar rules: every one of the twelve
axes under a loop, positional predicates on any axis, predicates that
read a loop variable, loops nested in loops (two-level lifting),
joins whose invariant side reads the outer variable, quantifiers, and
predicates that raise (on an empty step nothing is evaluated). And
element / document constructors under loops of 0, 1, 2 and many rows
(every row's tree built in one pass), their results navigated across
rows.

Property: ``Evaluator`` ≡ ``ReferenceEvaluator`` (the scalar rules,
per-node walker and nested loops) on the result items, or on the error
class — the ``outcome`` of ``test_flwor_differential.py``, over its
documents. Tier-1 runs a small seeded sample; CI's ``fuzz`` job the
``long`` profile.
"""

from hypothesis import given, strategies as st

from repro.obs.metrics import GLOBAL_REGISTRY
from repro.xmldb.parser import parse_document
from repro.xquery.context import DynamicContext
from repro.errors import XmlError
from repro.xquery.ast import (
    ComparisonExpr, ConstructorExpr, ContextItemExpr, EmptySequence, ForExpr,
    FunCall, IfExpr, LetExpr, Literal, NodeSetExpr, PathExpr, QuantifiedExpr,
    SequenceExpr, Step, VarRef,
)
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_query
from repro.xquery.pretty import pretty

from tests.conftest import fuzz_settings
from tests.oracle.xquery_reference_walker import ReferenceEvaluator
from tests.xquery.test_flwor_differential import _documents, outcome

_AXES = st.sampled_from([
    "child", "attribute", "self", "parent", "descendant",
    "descendant-or-self", "ancestor", "ancestor-or-self",
    "following-sibling", "preceding-sibling", "following", "preceding"])
_tests = st.sampled_from(["*", "node()", "a", "b", "text()"])
_comparisons = st.sampled_from(["=", "!=", "<", ">="])


def _doc(name: str) -> FunCall:
    return FunCall("doc", [Literal(name)])


@st.composite
def _predicates(draw, scope: tuple) -> list:
    """None, positional (``[k]``, ``[last()]``, ``[position() op k]``),
    context-relative, raising (``[error()]``), or reading a variable in
    scope."""
    context = ContextItemExpr()
    shapes = [
        st.integers(1, 3).map(Literal),
        st.just(FunCall("last", [])),
        st.builds(lambda op, k: ComparisonExpr(
            op, FunCall("position", []), Literal(k)),
            _comparisons, st.integers(1, 3)),
        st.builds(lambda test: PathExpr(context, [Step("child", test)]),
                  _tests),
        st.just(FunCall("error", [])),
    ]
    if scope:
        var = st.sampled_from(scope).map(VarRef)
        shapes += [
            st.builds(lambda op, name: ComparisonExpr(op, context, name),
                      _comparisons, var),
            st.builds(lambda name: ComparisonExpr(
                "=", PathExpr(context, [Step("attribute", "*")]),
                PathExpr(name, [Step("attribute", "*")])), var),
            st.builds(lambda name: ComparisonExpr(
                "=", FunCall("position", []),
                FunCall("count", [PathExpr(name, [Step("child", "*")])])),
                var),
        ]
    return draw(st.lists(st.one_of(shapes), max_size=2))


@st.composite
def _paths(draw, scope: tuple) -> PathExpr:
    root = (VarRef(draw(st.sampled_from(scope)))
            if scope and draw(st.integers(0, 3)) else
            PathExpr(_doc(draw(st.sampled_from(["d1", "d2"]))),
                     [Step("descendant", draw(_tests))]))
    return PathExpr(root, [
        Step(draw(_AXES), draw(_tests), draw(_predicates(scope)))
        for _ in range(draw(st.integers(1, 2)))])


@st.composite
def _sequences(draw, scope: tuple):
    """Bindings: the nodes of one document or of both, or a path in
    scope."""
    if scope and draw(st.booleans()):
        return draw(_paths(scope))
    return PathExpr(_doc(draw(st.sampled_from(["d1", "d2"]))), [
        Step("descendant-or-self", "node()"),
        Step("child", draw(st.sampled_from(["*", "a", "node()"])))])


@st.composite
def _joins(draw, outer: str) -> ForExpr:
    """A join-shaped loop whose invariant side reads ``$outer``: in a
    frame of several outer rows it runs once per row."""
    inner = "z" if outer == "y" else "y"
    dependent = PathExpr(VarRef(inner), [Step(draw(st.sampled_from(
        ["attribute", "child"])), draw(st.sampled_from(["*", "a"])))])
    invariant = PathExpr(VarRef(outer), [Step("attribute", "*")])
    return ForExpr(inner, draw(_sequences(())), IfExpr(
        ComparisonExpr(draw(_comparisons), dependent, invariant),
        VarRef(inner), EmptySequence()))


@st.composite
def _queries(draw):
    """A loop whose body is a path, a loop, a join or a quantifier over
    the bindings in scope."""
    outer = draw(st.sampled_from(["x", "y"]))
    scope = (outer,)
    shape = draw(st.integers(0, 3))
    if shape == 0:
        body = draw(_paths(scope))
    elif shape == 1:
        inner = draw(st.sampled_from(["y", "z"]))
        body = ForExpr(inner, draw(_sequences(scope)),
                       draw(_paths(scope + (inner,))))
    elif shape == 2:
        body = draw(_joins(outer))
    else:
        inner = draw(st.sampled_from(["y", "z"]))
        body = QuantifiedExpr(
            draw(st.sampled_from(["some", "every"])), inner,
            draw(_sequences(scope)), ComparisonExpr(
                draw(_comparisons), draw(_paths(scope + (inner,))),
                draw(_paths(scope))))
    return pretty(ForExpr(outer, draw(_sequences(())), body))


def _fallbacks() -> float:
    metric = GLOBAL_REGISTRY.get("evaluator_loop_fallbacks_total")
    return 0 if metric is None else sum(
        series.value for series in metric.series().values())


@given(text=_queries(), documents=_documents)
@fuzz_settings(150)
def test_frames_equal_the_scalar_rules(text, documents):
    """Frames ≡ the scalar rules, and no loop of a query without a
    remote call runs per binding."""
    before = _fallbacks()
    assert outcome(Evaluator, text, documents) \
        == outcome(ReferenceEvaluator, text, documents), text
    assert _fallbacks() == before, text


def test_a_raising_predicate_on_an_empty_step_is_not_evaluated():
    """A step with no candidate evaluates none of its predicates, as
    the nested loop evaluates them zero times: ``[error()]`` after a
    positional predicate gives the empty sequence."""
    pair = (parse_document('<r><a x="1"/><b>t</b></r>', "d1.xml"),
            parse_document("<r/>", "d2.xml"))
    for text in ('doc("d1")/child::nosuch[1][error()]',
                 'for $x in doc("d1")//node() '
                 "return $x/following-sibling::nosuch[last()][error()]"):
        assert outcome(Evaluator, text, pair) \
            == outcome(ReferenceEvaluator, text, pair) == ("items", []), text


def _path(var: str, *steps: tuple[str, str]) -> PathExpr:
    return PathExpr(VarRef(var), [Step(axis, test) for axis, test in steps])


#: One item of a constructor's content, in the row of ``$x`` (a node of
#: a generated document) at position ``$i``: atomics, the row's node,
#: its children, texts and attributes, a document node, text /
#: document / element constructors, and attribute constructors inline
#: (directly in the content) with static or computed names.
_content_items = st.sampled_from([
    Literal("a"), Literal(""), Literal(2), VarRef("i"),
    _path("x", ("self", "node()")),
    _path("x", ("child", "node()")),
    _path("x", ("child", "text()")),
    _path("x", ("attribute", "*")),
    _doc("d2"),
    ConstructorExpr("text", None, None, [VarRef("i")]),
    ConstructorExpr("text", None, None, [Literal("")]),
    ConstructorExpr("text", None, None, [EmptySequence()]),
    ConstructorExpr("document", None, None,
                    [_path("x", ("child", "node()"))]),
    ConstructorExpr("element", "e", None, [VarRef("i")]),
    ConstructorExpr("attribute", "k", None, [VarRef("i")]),
    ConstructorExpr("attribute", None, FunCall(
        "concat", [Literal("k"), VarRef("i")]), [Literal("v")]),
])

#: What each query returns about the rows' trees ``$r``: the trees,
#: their parents (none), roots (themselves), every horizontal axis
#: (never reaching another row), identity, and union (document order
#: across rows, as the rows come).
_navigations = [
    VarRef("r"),
    _path("r", ("parent", "node()")),
    ForExpr("y", VarRef("r"), ComparisonExpr(
        "is", FunCall("root", [VarRef("y")]), VarRef("y"))),
    _path("r", ("following", "*")),
    _path("r", ("preceding", "*")),
    _path("r", ("descendant-or-self", "node()"), ("following", "node()")),
    _path("r", ("descendant", "node()"), ("preceding", "node()")),
    _path("r", ("following-sibling", "node()")),
    _path("r", ("child", "node()"), ("following-sibling", "node()")),
    _path("r", ("child", "node()"), ("preceding-sibling", "node()")),
    ForExpr("y", VarRef("r"), ForExpr("z", VarRef("r"), ComparisonExpr(
        "is", VarRef("y"), VarRef("z")))),
    NodeSetExpr("union", FunCall("reverse", [VarRef("r")]),
                _path("r", ("child", "node()"))),
    FunCall("count", [_path("r", ("descendant-or-self", "node()"))]),
]


@st.composite
def _constructor_queries(draw):
    """``let $r := for $x at $i in (0, 1, 2 or 8 nodes) return
    <element or document> return <navigation of $r>``; an element
    with a static name may be direct, one part per content item."""
    content = draw(st.lists(_content_items, max_size=4))
    kind = draw(st.sampled_from(["element", "element", "document"]))
    name = draw(st.sampled_from(["r", None]))
    direct = kind == "element" and name is not None and draw(st.booleans())
    parts = content if direct or len(content) <= 1 \
        else [SequenceExpr(content)]
    constructor = ConstructorExpr(
        kind, name if kind == "element" else None,
        FunCall("concat", [Literal("r"), VarRef("i")])
        if kind == "element" and name is None else None, parts)
    rows = PathExpr(_doc(draw(st.sampled_from(["d1", "d2"]))), [
        Step("descendant-or-self", "node()")])
    count = draw(st.sampled_from([0, 1, 2, 8]))
    return pretty(LetExpr("r", ForExpr(
        "x", FunCall("subsequence", [rows, Literal(1), Literal(count)]),
        constructor, pos_var="i"), draw(st.sampled_from(_navigations))))


def constructed(engine, text: str, documents) -> tuple:
    """``outcome``, and an attribute-after-content error's message:
    it names the row's attribute, so the row that failed first."""
    verdict = outcome(engine, text, documents)
    if verdict != ("error", "XmlError"):
        return verdict
    store = dict(zip(("d1", "d2"), documents))
    try:
        engine(parse_query(text)).run(
            DynamicContext(resolve_doc=store.__getitem__))
    except XmlError as error:
        return verdict + (str(error),)
    raise AssertionError(f"{text} raised once, not twice")


@given(text=_constructor_queries(), documents=_documents)
@fuzz_settings(200)
def test_lifted_constructors_equal_the_per_row_rule(text, documents):
    """An element or document constructor over a frame (one pass, one
    document per row) ≡ the per-row rule, and so do the trees under
    every axis that could reach another row."""
    assert constructed(Evaluator, text, documents) \
        == constructed(ReferenceEvaluator, text, documents), text


def test_attribute_after_content_fails_at_the_same_row():
    """The first row whose attribute follows content decides the error,
    in the frame as in the per-row rule."""
    pair = (parse_document("<r><a/><a>t</a><a/></r>", "d1.xml"),
            parse_document("<r/>", "d2.xml"))
    text = ('for $x at $i in doc("d1")//a return '
            'element e {$x/node(), attribute {concat("k", $i)} {1}}')
    assert constructed(Evaluator, text, pair) \
        == constructed(ReferenceEvaluator, text, pair) \
        == ("error", "XmlError", "attribute 'k2' after element content")

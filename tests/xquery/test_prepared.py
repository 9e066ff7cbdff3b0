"""The shape scan and the prepared table (``xquery/prepared.py``).

The scan proposes which literals of a text are parameters of its
prepared query; it reads characters, not a parse, so what it must never
do is pinned here case by case, and what makes it sound — a text parsed
with slots and bound to its literals *is* the text parsed plainly, and
so is every other text of the same shape — is a property over the
whole-query generator of ``test_flwor_differential.py``.
"""

import threading

import pytest
from hypothesis import given, strategies as st

from repro.system.federation import Federation
from repro.xquery.ast import LiteralSlot, bind, walk
from repro.xquery.lexer import Lexer
from repro.xquery.parser import parse_query
from repro.xquery.prepared import (
    PLAN_CACHE_SIZE, Binding, PreparedTable, scan,
)
from repro.xquery.xdm import serialize_sequence

from tests.conftest import fuzz_settings
from tests.xquery.test_flwor_differential import _queries


def prepare(table: PreparedTable, text: str):
    """``(module as the table keeps it, literals text binds)``."""
    prepared, binding = table.intern_text(
        text, (), lambda module: module, prolog=True)
    return prepared.value, binding.literals


def slot_leaves(module) -> list[LiteralSlot]:
    return [node for node in walk(module.body)
            if isinstance(node, LiteralSlot)]


# -- what becomes a slot ------------------------------------------------------


@pytest.mark.parametrize("text, literals", [
    ("$x/age < 40", (40,)),
    ("$x/age<40", (40,)),
    ("$x/age <= 18.00", (18.0,)),
    ("$x/age >= 1e3", (1000.0,)),
    ("$x/age != 1.5E-1", (0.15,)),
    ('$x/name = "Ann"', ("Ann",)),
    ("$x/name = 'it''s'", ("it's",)),
    ('$x/name = "say ""hi"""', ('say "hi"',)),
    ("$x/age lt 40", (40,)),
    ("$x/age eq\n   40", (40,)),
    ("if (40 > $x/age) then 1 else 2", (40,)),
    ("//person[age < 40 and name = 'Ann']", (40, "Ann")),
    # A string operand is one slot; its content is never looked into.
    ('$x = "age < 40"', ("age < 40",)),
    ("//person[@id = \"p1\"]/name", ("p1",)),
    ("for $p in //person where $p/age >= 18 and $p/age < 65 return $p",
     (18, 65)),
])
def test_comparison_operands_become_slots(text, literals):
    shape = scan(text)
    assert shape.literals == literals
    assert [type(value) for value in shape.literals] \
        == [type(value) for value in literals]
    for (offset, _kind), value in zip(shape.slots, literals):
        assert Lexer(text[offset:]).next().value == value


@pytest.mark.parametrize("text", [
    # inside a comment, element content, an attribute template
    "(: age < 40 :) $x",
    "(: note :) $x/age < 40",
    "<r>{$x} age &lt; 40 = 40</r>",
    "<r>age = 40</r>",
    '<r a="{$x/age = 40}"/>',
    'for $p in //person return <row age="40">{$p/age = 40}</row>',
    # document and collection names, destinations, function arguments
    'doc("people.xml")//person',
    'collection("c")/person',
    'execute at {"peer1"} function ($p := $x) { $p/name }',
    'contains($x/name, "Ann")',
    "substring($x/name, 2) = $y",
    # positional predicates, whichever way they are written
    "//person[3]",
    "//person[last()]",
    "//person[position() < 3]",
    "//person[position() = 3]",
    "//person[3 >= position()]",
    "//person[fn:position() != 3]",
    "//person[last() = 3]",
    # a literal that is part of a larger operand, or no operand at all
    "$x/age = 2 + 1",
    "$x/age = 2 * $y",
    "$x/age < 1 to 3",
    "$x/age < -5",
    "1 + 2 = $x/age",
    "let $k := 40 return $x/age",
    "$a << $b",
    "$x/h1 = $y/h2",
    "40",
])
def test_nothing_else_becomes_a_slot(text):
    assert scan(text) == (text, (), ())


def test_slot_types_are_part_of_the_shape():
    """``"18.0"``, ``18.0`` and ``18`` compare differently (string,
    double, integer): three shapes, and each shares with its kind."""
    keys = {kind: scan(f"$x/age < {source}").key for kind, source in [
        ("string", '"18.0"'), ("double", "18.0"), ("integer", "18")]}
    assert len(set(keys.values())) == 3
    assert scan("$x/age < 67.75").key == keys["double"]
    assert scan("$x/age < 18.00").key == keys["double"]
    assert scan("$x/age < 1e3").key == keys["double"]
    assert scan("$x/age < 67").key == keys["integer"]
    assert scan("$x/age < 'Ann'").key == keys["string"]
    assert scan("$x/age <= 18").key != keys["integer"]
    # Equal values of two kinds hash alike; the shapes keep them apart.
    assert scan("$x/age < 18").literals == scan("$x/age < 18.0").literals


def test_scan_is_cheap():
    """The whole point of the scan is that a hit costs no parse: a
    first-seen text's scan must stay far below one (0.4 ms on this
    text; ≈ 0.016 ms measured), a text met again pays the memo."""
    import timeit
    from repro.workloads import BENCHMARK_QUERY
    cold = min(timeit.repeat(lambda: scan.__wrapped__(BENCHMARK_QUERY),
                             number=200, repeat=5)) / 200
    assert cold < 0.1e-3, f"{cold * 1e6:.0f} us per scan"
    assert scan(BENCHMARK_QUERY) is scan(BENCHMARK_QUERY)


# -- soundness: slotted and bound ≡ parsed plainly ------------------------------

_sources = {
    "integer": st.integers(0, 10 ** 6).map(str),
    "double": st.one_of(
        st.floats(0, 1e6, allow_nan=False).map(lambda x: f"{x:.3f}"),
        st.sampled_from(["1e3", "2.5E-2", "0.0", "18.00"])),
    "string": st.text(st.sampled_from("ab \"'<(:){}0="), max_size=6).map(
        lambda value: '"' + value.replace('"', '""') + '"'),
}


@st.composite
def _siblings(draw):
    """A generated query and a text that differs from it only in the
    literals the scan slotted (each replaced by one of its kind)."""
    text = draw(_queries())
    shape = scan(text)
    sibling, shift = text, 0
    for offset, kind in shape.slots:
        start, end = offset + shift, _literal_end(text, offset) + shift
        source = draw(_sources[kind])
        sibling = sibling[:start] + source + sibling[end:]
        shift += len(source) - (end - start)
    return text, sibling


def _literal_end(text: str, offset: int) -> int:
    """Where the lexer ends the literal token that starts at ``offset``."""
    lexer = Lexer(text)
    lexer.reset(offset)
    lexer.next()
    return lexer.pos


@given(pair=_siblings())
@fuzz_settings(300)
def test_texts_of_one_shape_differ_only_in_their_slots(pair):
    text, sibling = pair
    shape, other = scan(text), scan(sibling)
    assert other.key == shape.key
    assert [kind for _, kind in other.slots] \
        == [kind for _, kind in shape.slots]
    table = PreparedTable()
    module, literals = prepare(table, text)
    again, others = prepare(table, sibling)
    assert literals == shape.literals or literals == ()
    if literals or not shape.slots:
        # One shape, one entry — and binding it gives back each text.
        assert again is module
        assert len(slot_leaves(module)) == len(shape.slots)
    assert bind(module, literals) == parse_query(text)
    assert bind(again, others) == parse_query(sibling)


def test_a_refused_proposal_prepares_the_text_as_it_stands():
    """``position() + 1 < 3`` reads as a comparison operand to the
    scan; the parse finds ``position()`` across from it and keeps the
    literal in the shape — for every text of that would-be shape."""
    table = PreparedTable()
    text = "(1, 2, 3)[position() + 1 < 3]"
    assert scan(text).literals == (3,)
    module, literals = prepare(table, text)
    assert literals == () and not slot_leaves(module)
    assert module == parse_query(text)
    other, _ = prepare(table, text.replace("< 3", "< 4"))
    assert other is not module and other == parse_query(
        text.replace("< 3", "< 4"))
    assert prepare(table, text)[0] is module


def test_declined_text_runs_as_a_shape_without_slots():
    federation = Federation()
    federation.add_peer("p").store(
        "d.xml", "<r><n a='1'>x</n><n a='2'>y</n><n a='3'>z</n></r>")
    texts = ['(: tenant %d :) doc("d.xml")//n[@a < %d]/text()' % (k, k)
             for k in (2, 3)]
    answers = [serialize_sequence(
        federation.run(text, at="p", strategy="by-value").items)
        for text in texts + texts]
    assert answers == ["x", "x y", "x", "x y"]
    assert all(scan(text) == (text, (), ()) for text in texts)
    snapshot = federation.planner.snapshot()
    assert snapshot["cached_plans"] == 2 and snapshot["cache_hits"] == 2
    # Without the comment the two are one shape.
    for text in texts:
        federation.run(text.split(":) ")[1], at="p", strategy="by-value")
    assert federation.planner.snapshot()["cached_plans"] == 3


def test_an_unbound_slot_fails_loudly():
    module, literals = prepare(PreparedTable(), "(1, 2)[. < 2]")
    (slot,) = slot_leaves(module)
    assert literals == (2,) and not hasattr(slot, "value")
    from repro.xquery.pretty import pretty
    with pytest.raises(TypeError):
        pretty(module)
    assert pretty(bind(module, literals)) \
        == pretty(parse_query("(1, 2)[. < 2]"))


# -- the table ------------------------------------------------------------------


def test_bindings_of_a_shape_are_a_bounded_lru():
    table = PreparedTable()
    prepared, first = table.intern_text("$x < 0", (), lambda body: body)
    for value in range(1, PLAN_CACHE_SIZE):
        assert table.intern_text(f"$x < {value}", (), lambda body: body)[0] \
            is prepared
    assert prepared.bind((0,)) is first          # touched: most recent
    assert isinstance(first, Binding) and first.literals == (0,)
    table.intern_text(f"$x < {PLAN_CACHE_SIZE}", (), lambda body: body)
    assert prepared.bind((0,)) is first          # 1 was the oldest
    assert len(table) == 1


def test_slow_first_sight_of_one_shape_does_not_block_another():
    """The table lock covers the lookup, an entry's own lock the build:
    threads racing on one key share one build, and a lookup of another
    key goes straight through a build in progress."""
    table = PreparedTable()
    building, release = threading.Event(), threading.Event()
    builds: list[str] = []

    def slow():
        builds.append("slow")
        building.set()
        assert release.wait(10)
        return "slow entry"

    results: dict[str, object] = {}
    first = threading.Thread(
        target=lambda: results.update(first=table.intern("slow", slow)))
    first.start()
    assert building.wait(10)
    second = threading.Thread(
        target=lambda: results.update(second=table.intern("slow", slow)))
    second.start()
    other = threading.Thread(
        target=lambda: results.update(other=table.intern(
            "other", lambda: builds.append("other") or "other entry")))
    other.start()
    other.join(10)
    assert results == {"other": "other entry"}, \
        "the lookup of another key waited for the slow build"
    assert first.is_alive() and second.is_alive()
    release.set()
    first.join(10)
    second.join(10)
    assert results["first"] == results["second"] == "slow entry"
    assert builds == ["slow", "other"]


def test_a_failed_build_leaves_no_entry():
    table = PreparedTable()
    with pytest.raises(ZeroDivisionError):
        table.intern("key", lambda: 1 / 0)
    assert len(table) == 0
    assert table.intern("key", lambda: "built") == "built"

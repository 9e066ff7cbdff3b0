"""The built-in table: every registered built-in, at every arity,
applied at peer B to a node shipped from peer A, answers as data
shipping does under by-value, by-fragment, by-projection and ``auto``.

The rows live in ``examples/language_tour.py``, which runs them too. A
row that answers differently is a strict xfail naming its ROADMAP
item (``BUILTIN_FAULTS``).
"""

import runpy
from pathlib import Path

import pytest

from repro.decompose import Strategy, decompose
from repro.xquery.functions import BUILTINS
from repro.xquery.parser import parse_query
from repro.xquery.pretty import pretty

TOUR = runpy.run_path(str(Path(__file__).resolve().parents[2]
                          / "examples" / "language_tour.py"))
ROWS = TOUR["BUILTIN_ROWS"]
FAULTS = TOUR["BUILTIN_FAULTS"]


def _label(key: tuple[str, int]) -> str:
    return f"{key[0]}#{key[1]}"


def _cases():
    for key in ROWS:
        known, reason = FAULTS.get(key, (set(), ""))
        for strategy in TOUR["BUILTIN_STRATEGIES"]:
            marks = ([pytest.mark.xfail(strict=True, reason=reason)]
                     if strategy in known else [])
            yield pytest.param(key, strategy, marks=marks,
                               id=f"{_label(key)}-{strategy}")


@pytest.fixture(scope="module")
def data_shipping():
    """The federation, and each row's data-shipping answer."""
    federation = TOUR["builtin_federation"]()
    return federation, {
        key: TOUR["answer"](federation, TOUR["builtin_query"](row),
                            "data-shipping")
        for key, row in ROWS.items()}


@pytest.mark.parametrize("key, strategy", _cases())
def test_a_built_in_on_a_shipped_node_answers_as_data_shipping(
        data_shipping, key, strategy):
    federation, expected = data_shipping
    query = TOUR["builtin_query"](ROWS[key])
    assert TOUR["answer"](federation, query, strategy) == expected[key]


def test_every_registered_built_in_has_a_row():
    assert sorted(ROWS) == sorted(BUILTINS)


@pytest.mark.parametrize("key", [key for key in ROWS
                                 if key not in TOUR["BUILTIN_LOCAL"]],
                         ids=_label)
def test_the_row_runs_at_the_peer_x_is_shipped_to(key):
    decomposed = decompose(parse_query(TOUR["builtin_query"](ROWS[key])),
                           Strategy.BY_PROJECTION, local_host="local")
    assert 'execute at {"B"} function ($x' in pretty(decomposed.module)

"""Every cell of ``benchmarks/figures.json`` recomputed, compared with
no tolerance, and the paper's shape claims asserted on the series. A
change that moves a cell on purpose re-runs the generator."""

import json
from itertools import pairwise

import pytest

from benchmarks.conftest import moved_cells
from benchmarks.figures import FIGURES_JSON, README, SCALES, compute, render

STRATEGIES = ("data-shipping", "by-value", "by-fragment", "by-projection")
DS, BV, BF, BP = STRATEGIES


@pytest.fixture(scope="module")
def figures():
    return compute()


@pytest.fixture(scope="module")
def rows(figures):
    return [figures["figures_7_9"][str(scale)] for scale in SCALES]


def test_every_cell_equals_the_pinned_file_and_readme(figures):
    pinned = json.loads(FIGURES_JSON.read_text())
    moved = moved_cells(figures, pinned)
    assert not moved, "\n".join(moved)
    assert render(pinned) in README.read_text()


def test_all_strategies_agree(rows):
    for row in rows:
        assert row[DS]["items"] > 0
        assert all(row[s]["equals_data_shipping"] for s in STRATEGIES)


def test_figure7_bandwidth_ordering(rows):
    for row in rows:  # strictly fewer bytes down the strategies
        sent = [row[s]["total_transferred_bytes"] for s in STRATEGIES]
        assert sent == sorted(set(sent), reverse=True)
    # Decomposed transfer grows monotonically (up to 5 % selectivity
    # noise) and at most linearly with the documents.
    for strategy in (BF, BP):
        series = [row[strategy]["total_transferred_bytes"] for row in rows]
        assert all(b >= 0.95 * a for a, b in pairwise(series))
        assert series[-1] / series[0] < 1.5 * SCALES[-1] / SCALES[0]


def test_figure8_shred_dominates_data_shipping(rows):
    for row in rows:  # the decomposed strategies shred nothing
        assert row[DS]["shred"] > max(row[DS][c] for c in (
            "local exec", "(de)serialize", "remote exec", "network"))
        assert all(row[s]["shred"] == 0 < row[s]["remote exec"]
                   for s in (BF, BP))
    assert rows[-1][DS]["shred"] > 0.5 * rows[-1][DS]["total"]


def test_figure9_time_ordering(rows):
    for row in rows:
        assert row[BP]["total"] < row[BF]["total"] < row[DS]["total"]
    assert rows[-1][BF]["total"] < 0.5 * rows[-1][DS]["total"]


def test_fragment_and_projection_ship_no_documents(rows):
    assert all(row[s]["documents_shipped"] == row[s]["document_bytes"] == 0
               for row in rows for s in (BF, BP))


def test_by_value_still_ships_auctions_document(rows):
    # Only the people path is decomposable by value; the auctions doc
    # data-ships (its path uses descendant::, condition iii).
    for row in rows:
        assert (row[BV]["documents_shipped"], row[BV]["messages"]) == (1, 2)


def test_message_counts(rows):
    for row in rows:  # data shipping runs nothing remotely
        assert row[DS]["messages"] == row[DS]["remote exec"] == 0
        assert row[BF]["messages"] == row[BP]["messages"] == 4  # two calls


def test_figures_10_11_projection_precision(figures):
    for cell in figures["figures_10_11"].values():
        assert cell["compile_bytes"] > 1.5 * cell["runtime_bytes"]
        assert cell["runtime_kept"] < cell["compile_kept"] \
            < cell["total_nodes"]


def test_ablations(figures):
    bulk, motion, sinking, encoding = (figures["ablations"][name] for name in (
        "bulk_rpc", "code_motion", "let_sinking", "encoding"))
    assert (bulk["with"]["messages"], bulk["without"]["messages"]) == (2, 40)
    assert bulk["with"]["network_s"] < bulk["without"]["network_s"]
    assert motion["with"]["message_bytes"] < motion["without"]["message_bytes"]
    # Without sinking the doc() reaches its path only through a varref
    # edge: nothing is decomposed and the whole document is fetched.
    assert sinking["with"]["answer"] == sinking["without"]["answer"]
    assert sinking["with"]["documents_shipped"] == 0 \
        < sinking["without"]["documents_shipped"]
    assert sinking["with"]["total_bytes"] < sinking["without"]["total_bytes"]
    # One interval test per check against a walk up the parents.
    walk = encoding["pointer walk"]
    assert encoding["pre/size interval"]["hits"] == walk["hits"]
    assert walk["parent_steps"] > 3000


def test_auto_within_ten_percent_of_the_best_fixed_strategy(rows):
    # A cold planner picks per call site from document statistics.
    for row in rows:
        auto = row["auto"]
        assert auto["actual_s"] <= 1.10 * min(row[s]["total"]
                                              for s in STRATEGIES)
        assert auto["chosen_plan"] and auto["estimated_s"] > 0


def test_auto_beats_every_fixed_strategy_on_the_mixed_tenants(figures):
    # No fixed strategy is right for all three job shapes.
    totals = figures["mixed_tenants_s"]
    assert totals["auto"] < min(totals[s] for s in STRATEGIES)

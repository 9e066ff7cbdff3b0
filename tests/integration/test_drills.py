"""Every cell and event line of ``benchmarks/drills.json`` recomputed and
compared with no tolerance, and what each drill must show asserted by
name on its cells, so a re-pin cannot approve a wrong answer. A change
that moves a cell on purpose re-runs the generator."""

import json
from itertools import zip_longest

import pytest

from benchmarks.conftest import moved_cells
from benchmarks.drills import DRILLS_JSON, compute


@pytest.fixture(scope="module")
def drills():
    return json.loads(json.dumps(compute()))


def _hold(claims: dict) -> None:
    broken = [claim for claim, holds in claims.items() if not holds]
    assert not broken, "\n".join(broken)


def test_every_cell_and_event_equals_the_pinned_file(drills):
    pinned = json.loads(DRILLS_JSON.read_text())
    logs = {name: (cells.get("events", []),
                   pinned.get(name, {}).get("events", []))
            for name, cells in drills.items()}
    moved = moved_cells(
        {name: {k: v for k, v in cells.items() if k != "events"}
         for name, cells in drills.items()},
        {name: {k: v for k, v in cells.items() if k != "events"}
         for name, cells in pinned.items()})
    for name, (now, then) in sorted(logs.items()):
        line = next((number for number, (a, b) in enumerate(
            zip_longest(now, then)) if a != b), None)
        if line is not None:
            moved.append(
                f"{name}/events line {line + 1} of {len(then)} pinned, "
                f"{len(now)} now:\n  pinned {then[line:line + 1]}\n"
                f"  now    {now[line:line + 1]}")
    assert not moved, "\n".join(moved)


def test_chaos_drill(drills):
    """detect -> evict -> re-replicate -> serve -> rejoin."""
    cells = drills["chaos"]
    _hold({
        "warmup answers match the single-owner oracle":
            cells["warmup_exact"],
        "no failovers during the healthy warmup":
            cells["warmup_failovers"] == 0,
        "degrade-phase answers match": cells["degrade_exact"],
        "a degraded (not dead) peer is still judged alive":
            cells["degraded_state"] == "alive",
        "the burn-rate alert fires exactly once while degraded":
            cells["degrade_alerts"] == 1,
        "the killed peer is evicted": cells["killed_state"] == "evicted",
        "eviction bumps the catalog epoch": cells["eviction_epochs"] > 0,
        "repair restores target replication": cells["repair_converged"],
        "one repair per lost fragment":
            cells["repairs_completed"] == cells["lost_fragments"] > 0,
        "no shard under-replicated after repair":
            cells["under_replicated"] == 0,
        "post-repair answers match": cells["healed_exact"],
        "the healed fleet never selects the evicted replica":
            cells["healed_failovers"] == 0,
        "the revived peer is alive": cells["revived_state"] == "alive",
        "membership re-converges": cells["converged"],
        "post-revive answers match": cells["revived_exact"],
        "no query fails": cells["failed"] == 0,
        "the burn-rate alert does not flap": cells["alert_fired"] == 1,
        "exactly one eviction event": cells["replica_evicted"] == 1,
        "one repair_completed event per repaired fragment":
            cells["repair_completed"] == cells["lost_fragments"],
    })


def test_rebalance_drill(drills):
    """observe skew -> split -> move -> drain."""
    cells = drills["rebalance"]
    _hold({
        "warmup answers match the single-owner oracle":
            cells["warmup_exact"],
        "hot-phase answers match": cells["hot_exact"],
        "the heat plans a split of the hot collection":
            cells["split_plans"] >= 1,
        "every planned split completes":
            cells["splits_completed"] == cells["split_plans"],
        "the split adds one shard": cells["people_shards"][1]
            == cells["people_shards"][0] + 1,
        "post-split scan answers match": cells["split_scan_exact"],
        "post-split hot answers match": cells["split_hot_exact"],
        "the explicit move completes": cells["move_completed"],
        "the retired source copy survives until collect()":
            cells["retired_copy_kept"],
        "collect() retires something after the move":
            cells["move_collected"] >= 1,
        "collect() removes the retired copy":
            not cells["retired_copy_left"],
        "post-move answers match": cells["move_exact"],
        "the drain completes": cells["drain_completed"],
        "the drained peer holds no fragment":
            cells["drained_fragments"] == 0,
        "the drained peer stores no document":
            cells["drained_documents"] == 0,
        "replication holds on the remaining fleet":
            cells["under_replicated"] == 0,
        "post-drain scan answers match": cells["drain_scan_exact"],
        "post-drain hot answers match": cells["drain_hot_exact"],
        "no migration fails": cells["migrations_failed"] == 0,
        "at least one split and one move ran":
            cells["splits"] >= 1 and cells["moves"] >= 1,
        "superseded copies are collected": cells["collected"] >= 1,
        "rebalance_planned events": cells["rebalance_planned"] >= 1,
        "rebalance_retired events": cells["rebalance_retired"] >= 1,
    })


def test_soak_drill(drills):
    """A replica degrades, then one dies and comes back."""
    cells = drills["soak"]
    _hold({
        "warmup answers correct": cells["warmup_exact"],
        "no failovers during the healthy warmup":
            cells["warmup_failovers"] == 0,
        "degrade-phase answers correct": cells["degrade_exact"],
        "the degraded replica is demoted": "node2" in cells["demoted"],
        "no failover before health demotion could act":
            cells["degrade_failovers"] == 0,
        "the burn-rate alert fires exactly once while degraded":
            cells["degrade_alerts"] == 1,
        "kill-phase answers correct": cells["kill_exact"],
        "the dead replica registers failovers":
            cells["kill_failovers"] >= 1,
        "recovery-phase answers correct": cells["revived_exact"],
        "no query fails": cells["failed"] == 0,
        "the burn-rate alert does not flap": cells["alert_fired"] == 1,
        "the profiler sampled traces": cells["profile_samples"] >= 1,
    })


@pytest.mark.parametrize("name", ["chaos_soak", "reshard_soak"])
def test_seeded_soak(drills, name):
    """A seeded schedule, converged, then a steady pass."""
    cells = drills[name]
    claims = {
        "no wrong answer": cells["wrong_answers"] == 0
            and cells["wrong_steps"] == [],
        "the cluster converges after the schedule": cells["converged"],
        "the healed cluster fails over on nothing":
            cells["steady_failovers"] == 0,
        "the catalog places no replica on a peer lacking it":
            cells["phantom_replicas"] == 0,
        "a healthy scan after the soak answers the oracle":
            cells["final_exact"],
    }
    if name == "chaos_soak":
        claims.update({
            "no repair fails": cells["repairs_failed"] == 0,
            "the schedule evicts a peer": cells["evictions"] >= 1,
            "evictions are repaired": cells["repairs_completed"] >= 1,
        })
    else:
        claims.update({
            "no migration fails": cells["migrations_failed"] == 0,
            "a split, a move and a drain ran": cells["splits"] >= 1
                and cells["moves"] >= 1 and cells["drains"] >= 1,
        })
    _hold(claims)

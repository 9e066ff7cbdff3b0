"""The typed event log: ring bounds, cumulative counts, JSONL export."""

import ast
import json
import re
import time
from pathlib import Path

import pytest

import repro
from repro.clock import VirtualClock
from repro.cluster.membership import ALIVE, DEAD, SUSPECT
from repro.obs import events as events_module
from repro.obs.events import CAPACITY, EventLog


class TestEventLog:

    def test_emit_and_recent(self):
        log = EventLog()
        log.emit("failover", "node2 failed, trying node3",
                 severity="warning", shard="books-c#s1")
        log.emit("peer_down", "node2 killed", severity="error")
        events = log.recent()
        assert [e.kind for e in events] == ["failover", "peer_down"]
        assert events[0].attrs == {"shard": "books-c#s1"}
        assert events[0].seq < events[1].seq

    def test_recent_filters_then_limits(self):
        log = EventLog()
        for index in range(5):
            log.emit("a", f"a{index}")
            log.emit("b", f"b{index}")
        recent = log.recent(n=2, kind="a")
        assert [e.message for e in recent] == ["a3", "a4"]

    def test_capacity_bounds_ring_but_not_counts(self):
        log = EventLog()
        total = CAPACITY + 3
        for index in range(total):
            log.emit("tick", f"t{index}")
        assert len(log) == CAPACITY
        assert [e.message for e in log.recent(n=3)] == [
            f"t{index}" for index in range(total - 3, total)]
        assert log.recent(n=total)[0].message == "t3"
        # Cumulative counts survive eviction: the soak test's
        # "fired exactly once" is asserted against these.
        assert log.count("tick") == total
        assert log.counts() == {"tick": total}

    def test_severity_validated(self):
        log = EventLog()
        with pytest.raises(ValueError):
            log.emit("kind", "msg", severity="critical")

    def test_injected_clock_stamps_both_timestamps(self):
        """Changed on purpose in PR 20: ``wall_ts`` used to be real
        time whatever the clock, which kept two logs of one seeded
        drill from ever comparing equal."""
        log = EventLog(clock=VirtualClock(42.5))
        event = log.emit("tick", "t")
        assert event.perf_s == 42.5
        assert event.wall_ts == VirtualClock.EPOCH + 42.5

    def test_default_clock_is_real_time(self):
        before = time.time()
        event = EventLog().emit("tick", "t")
        assert before <= event.wall_ts <= time.time()
        assert 0 < event.perf_s <= time.perf_counter()

    def test_to_dicts_shape(self):
        log = EventLog()
        log.emit("failover", "msg", severity="warning", replica="node2")
        (entry,) = log.to_dicts()
        assert entry["kind"] == "failover"
        assert entry["severity"] == "warning"
        assert entry["attrs"] == {"replica": "node2"}
        assert {"seq", "wall_ts", "perf_s", "message"} <= set(entry)

    def test_export_jsonl(self, tmp_path):
        log = EventLog()
        log.emit("epoch_bump", "catalog epoch -> 2", epoch=2)
        log.emit("shard_skip", "skipped s3")
        path = tmp_path / "events.jsonl"
        assert log.export_jsonl(path) == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "epoch_bump"
        assert parsed[0]["attrs"]["epoch"] == 2
        assert parsed[1]["kind"] == "shard_skip"


def emitted_kinds() -> set[str]:
    """Every event kind ``src/`` emits: the string literals an
    ``….emit(kind, …)`` call passes (both branches of a conditional),
    plus the detector's ``membership_{state}`` family, which is
    formatted."""
    kinds = {f"membership_{state}" for state in (ALIVE, SUSPECT, DEAD)}
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"):
                continue
            kind = node.args[0]
            branches = ([kind.body, kind.orelse]
                        if isinstance(kind, ast.IfExp) else [kind])
            kinds.update(branch.value for branch in branches
                         if isinstance(branch, ast.Constant)
                         and isinstance(branch.value, str))
    return kinds


def test_every_emitted_kind_is_documented():
    documented = set(re.findall(r"^``(\w+)``", events_module.__doc__,
                                re.MULTILINE))
    emitted = emitted_kinds()
    assert len(emitted) >= 30       # the scan itself still finds them
    assert emitted - documented == set(), "undocumented event kinds"
    assert documented - emitted == set(), "documented, never emitted"

"""The clock seam: the real ``Clock``, the ``VirtualClock`` drills and
tests pass in its place, and the guard that keeps the seam the only
way time gets into ``src/repro``."""

import ast
import time
from pathlib import Path

import repro
from repro.clock import REAL_CLOCK, Clock, VirtualClock

#: Besides the seam itself, two measurement-only stopwatches: they time
#: CPU work into the process-global registry the ledger reads, decide
#: nothing, and have no federation (so no clock) in reach.
TIME_IMPORTERS = {"clock.py", "xmldb/index.py", "xmldb/values.py"}


class TestClock:
    def test_reads_are_the_real_timebases(self):
        before = time.perf_counter()
        now = REAL_CLOCK()
        assert before <= now <= time.perf_counter()
        wall_before = time.time()
        assert wall_before <= REAL_CLOCK.wall() <= time.time()

    def test_sleep_passes_wall_time(self):
        start = time.perf_counter()
        Clock().sleep(0.01)
        assert time.perf_counter() - start >= 0.01


class TestVirtualClock:
    def test_time_passes_only_when_told_to(self):
        clock = VirtualClock()
        assert clock() == clock.now == 0.0
        clock.advance(1.5)
        clock.sleep(0.25)
        assert clock() == clock.now == 1.75
        assert VirtualClock(1000.0)() == 1000.0

    def test_sleep_takes_no_wall_time(self):
        clock = VirtualClock()
        start = time.perf_counter()
        clock.sleep(3600.0)
        assert time.perf_counter() - start < 1.0
        assert clock.now == 3600.0

    def test_wall_is_a_fixed_epoch_plus_now(self):
        clock = VirtualClock(2.0)
        assert clock.wall() == VirtualClock.EPOCH + 2.0
        assert time.gmtime(VirtualClock.EPOCH)[:3] == (2009, 3, 29)

    def test_is_a_clock(self):
        assert isinstance(VirtualClock(), Clock)


def test_only_the_seam_and_two_stopwatches_import_time():
    root = Path(repro.__file__).parent
    importers = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(name.split(".")[0] == "time" for name in names):
                importers.add(path.relative_to(root).as_posix())
    assert importers == TIME_IMPORTERS

"""Ablation benchmarks for the design choices the paper calls out:
Bulk RPC, distributed code motion, let-sinking normalisation, and the
pre/size/level encoding."""

import random
import time

from repro.decompose import Strategy
from repro.system.federation import Federation
from repro.workloads import BENCHMARK_QUERY, build_federation
from repro.xmark import XMarkConfig, generate_people

from benchmarks.conftest import print_table

SCALE = 0.01


class TestBulkRpc:
    """One message per loop-nested call site vs one per iteration."""

    QUERY = (
        "declare function probe($i as xs:integer) as xs:integer "
        "{ $i * 2 };\n"
        "for $i in (1 to 20) return "
        'execute at {"peer1"} { probe($i) }')

    def _federation(self):
        fed = Federation()
        fed.add_peer("peer1")
        fed.add_peer("local")
        return fed

    def test_ablation_bulk_rpc(self):
        fed = self._federation()
        bulk = fed.run(self.QUERY, at="local",
                       strategy=Strategy.BY_FRAGMENT, bulk_rpc=True)
        single = fed.run(self.QUERY, at="local",
                         strategy=Strategy.BY_FRAGMENT, bulk_rpc=False)
        print_table("Ablation: Bulk RPC (20-iteration loop)",
                    ["variant", "messages", "network ms"],
                    [["bulk", bulk.stats.messages,
                      f"{bulk.stats.times.network*1000:.2f}"],
                     ["per-call", single.stats.messages,
                      f"{single.stats.times.network*1000:.2f}"]])
        assert bulk.stats.messages == 2
        assert single.stats.messages == 40
        assert bulk.stats.times.network < single.stats.times.network

    def test_ablation_bulk_rpc_timing(self, benchmark):
        fed = self._federation()
        benchmark(lambda: fed.run(self.QUERY, at="local",
                                  strategy=Strategy.BY_FRAGMENT))


class TestCodeMotion:
    """Shipping $t/attribute::id strings instead of person subtrees."""

    def test_ablation_code_motion(self):
        fed = build_federation(SCALE)
        with_motion = fed.run(BENCHMARK_QUERY, at="local",
                              strategy=Strategy.BY_FRAGMENT,
                              code_motion=True)
        without = fed.run(BENCHMARK_QUERY, at="local",
                          strategy=Strategy.BY_FRAGMENT,
                          code_motion=False)
        print_table(
            "Ablation: distributed code motion (message bytes)",
            ["variant", "message bytes"],
            [["with motion", with_motion.stats.message_bytes],
             ["without", without.stats.message_bytes]])
        assert with_motion.stats.message_bytes < \
            without.stats.message_bytes


class TestLetSinking:
    """Without normalisation, varref edges block decomposition of the
    peer2 side (Section IV's point about syntactic vulnerability)."""

    def test_ablation_let_sinking(self):
        # A query where the doc() is bound away from its use; the
        # local anchor pins the root so only let-sinking can connect
        # the doc() to its path via parse edges and make it shippable.
        query = ('let $c := doc("xrpc://peer2/auctions.xml") return '
                 "(count($c/child::site/child::open_auctions"
                 "/child::open_auction), "
                 'count(doc("anchor.xml")/child::m))')
        fed = build_federation(SCALE)
        fed.peer("local").store("anchor.xml", "<m><n/></m>")
        sunk = fed.run(query, at="local", strategy=Strategy.BY_FRAGMENT,
                       let_sinking=True)
        plain = fed.run(query, at="local",
                        strategy=Strategy.BY_FRAGMENT, let_sinking=False)
        print_table(
            "Ablation: let-sinking normalisation",
            ["variant", "docs shipped", "transferred bytes"],
            [["with sinking", sunk.stats.documents_shipped,
              sunk.stats.total_transferred_bytes],
             ["without", plain.stats.documents_shipped,
              plain.stats.total_transferred_bytes]])
        assert sunk.items == plain.items
        # Without sinking, the doc() reaches its path only through a
        # varref edge: nothing ships and the whole document must be
        # fetched. With sinking, the count pushes to peer2.
        assert plain.stats.documents_shipped >= 1
        assert sunk.stats.documents_shipped == 0
        assert sunk.stats.total_transferred_bytes < \
            plain.stats.total_transferred_bytes


class TestEncoding:
    """O(1) interval ancestry vs pointer-chasing parent walks."""

    def test_ablation_encoding(self):
        doc = generate_people(XMarkConfig(scale=0.01))
        rng = random.Random(7)
        pairs = [(doc.node(rng.randrange(len(doc))),
                  doc.node(rng.randrange(len(doc))))
                 for _ in range(3000)]

        start = time.perf_counter()
        interval_hits = sum(1 for a, b in pairs if a.is_ancestor_of(b))
        interval_s = time.perf_counter() - start

        def walk_ancestor(a, b):
            parent = b.parent()
            while parent is not None:
                if parent == a:
                    return True
                parent = parent.parent()
            return False

        start = time.perf_counter()
        walk_hits = sum(1 for a, b in pairs if walk_ancestor(a, b))
        walk_s = time.perf_counter() - start

        print_table(
            "Ablation: pre/size interval vs pointer-walk ancestry "
            "(3000 checks)",
            ["variant", "ms"],
            [["pre/size interval", f"{interval_s*1000:.2f}"],
             ["pointer walk", f"{walk_s*1000:.2f}"]])
        assert interval_hits == walk_hits
        assert interval_s < walk_s

"""Property tests for the migration protocol.

Three invariants the executor must hold under any input:

1. **Split exactness** — the two child fragments of any boundary split
   merge back byte-exactly into the parent fragment.
2. **No intermediate under-replication, no torn placement** — at every
   catalog state a migration publishes, the migrated shard's live
   replica count is ≥ its pre-migration count, and every published
   replica already holds the fragment bytes (checked synchronously
   inside ``update``, before any reader can observe the state).
3. **Mid-migration deaths converge** — killing the copy source or the
   destination at any point yields either a completed cutover or a
   clean give-up with the catalog untouched; after revival a reconcile
   finds target replication whole and answers stay byte-exact.
4. **Placement truth under interleaving** — a split or move of
   another shard landing while a re-replication's copy is in flight
   leaves every placed replica holding its fragment and nothing stored
   that is not placed (the cutover re-finds its shard by name in the
   spec current at the cutover, never by a plan-time index), and an
   eviction landing mid-copy never puts the evicted peer into the
   placement the cutover publishes.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    BoundaryPartitioner, ClusterCatalog, MigrationExecutor, MovePlan,
    SplitPlan, create_sharded_collection, merge_shard_documents,
    partition_document,
)
from repro.cluster.membership import EVICTED, MembershipTracker
from repro.cluster.rebalance import Reconciler, ReplicatePlan, RetirePlan
from repro.decompose import Strategy
from repro.net.costmodel import CostModel
from repro.runtime.transport import Transport
from repro.system.federation import Federation
from repro.xmldb.document import Document
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import cached_serialization, serialize

from repro.xquery.xdm import serialize_sequence

from tests.cluster.conftest import (
    LIBRARY_CONTAINER, LIBRARY_MEMBER, make_cluster, make_single_owner,
)

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")


def library_xml(count: int) -> str:
    return (
        "<library><meta><curator>Ann</curator></meta><books>"
        + "".join(f'<book id="b{i}"><title>Book {i}</title>'
                  f"<year>{2000 + i}</year></book>"
                  for i in range(count))
        + "</books><staff><clerk>Bob</clerk></staff></library>"
    )


class RecordingCatalog(ClusterCatalog):
    """Checks the no-torn-placement invariant *synchronously* inside
    every ``update`` — at the instant a placement becomes visible,
    every replica it names must already hold the fragment."""

    def __init__(self, federation_ref):
        super().__init__()
        # The check runs under the catalog lock and reads the catalog.
        self._lock = threading.RLock()
        self.federation_ref = federation_ref
        self.history: list[tuple[str, dict[int, int]]] = []

    def update(self, name, fn, reason="replace", **attrs):
        federation = self.federation_ref()

        def checked(current):
            spec = fn(current)
            if spec is None:
                return None
            for shard in spec.shards:
                for replica in shard.replicas:
                    assert shard.local_name in \
                        federation.peer(replica).documents, (
                            f"torn placement: {reason} published "
                            f"{shard.local_name} on {replica} before "
                            f"the bytes landed")
            self.history.append(
                (reason, {s.index: live_count(federation, s)
                          for s in spec.shards}))
            return spec

        return super().update(name, checked, reason, **attrs)


def live_count(federation, shard) -> int:
    """How many of ``shard``'s replicas the peer view lets serve."""
    return sum(map(federation.peer_view.serves, shard.replicas))


class KillAfter(Transport):
    """Kills ``victim`` after ``threshold`` document fetches — the
    seeded mid-migration death."""

    def __init__(self, cost_model, victim: str | None = None,
                 threshold: int = 0):
        super().__init__(cost_model)
        self.victim = victim
        self.threshold = threshold
        self.fetches = 0

    def fetch_document(self, owner, local_name, stats):
        if self.victim is not None:
            if self.fetches >= self.threshold:
                self.kill_peer(self.victim)
                self.victim = None
            self.fetches += 1
        return super().fetch_document(owner, local_name, stats)


def make_recorded_cluster(members: int = 8, shard_count: int = 2,
                          transport=None):
    holder: list[Federation] = []
    catalog = RecordingCatalog(lambda: holder[0])
    federation = Federation(catalog=catalog, transport=transport)
    holder.append(federation)
    for node in ("node1", "node2", "node3", "node4"):
        federation.add_peer(node)
    federation.add_peer("local")
    create_sharded_collection(
        federation, catalog, name="books-c",
        document=parse_document(library_xml(members),
                                uri="xrpc://books-c/books.xml"),
        document_name="books.xml", container_path=LIBRARY_CONTAINER,
        member=LIBRARY_MEMBER, shard_count=shard_count,
        replication_factor=2,
        peers=["node1", "node2", "node3", "node4"])
    return federation, catalog


# -- invariant 1: split exactness -------------------------------------------


@settings(max_examples=40, deadline=None)
@given(members=st.integers(min_value=2, max_value=30),
       data=st.data())
def test_split_children_union_to_parent_bytes(members, data):
    at = data.draw(st.integers(min_value=1, max_value=members - 1))
    text = library_xml(members)
    doc = parse_document(text, uri="xrpc://c/books.xml")
    fragments = partition_document(
        doc, LIBRARY_CONTAINER, LIBRARY_MEMBER, 2,
        BoundaryPartitioner(at))
    counts = [count for _frag, count in fragments]
    assert counts == [at, members - at]
    merged = merge_shard_documents(
        [frag for frag, _count in fragments], uri=doc.uri,
        container_path=LIBRARY_CONTAINER)
    assert serialize(merged) == serialize(doc)


# -- invariant 2: live replicas never dip, placements never tear -------------


@settings(max_examples=25, deadline=None)
@given(members=st.integers(min_value=2, max_value=12),
       data=st.data())
def test_migrations_never_reduce_live_replicas(members, data):
    federation, catalog = make_recorded_cluster(members=members)
    executor = MigrationExecutor(federation)
    spec = catalog.get("books-c")
    pre_live = {s.index: live_count(federation, s) for s in spec.shards}
    shard = data.draw(st.sampled_from(spec.shards))
    do_split = data.draw(st.booleans()) and shard.members >= 2
    if do_split:
        at = data.draw(st.integers(min_value=1,
                                   max_value=shard.members - 1))
        assert executor.execute(SplitPlan("books-c", shard.index,
                                          at_member=at))
    else:
        source = data.draw(st.sampled_from(shard.replicas))
        targets = [p for p in ("node1", "node2", "node3", "node4")
                   if p not in shard.replicas]
        assert executor.execute(MovePlan(
            "books-c", shard.index, source=source,
            target=data.draw(st.sampled_from(targets))))
    # RecordingCatalog.replace already proved no placement tore; here:
    # no published state dropped a surviving shard below its
    # pre-migration live count.
    for reason, live_by_index in catalog.history:
        if reason != "rebalance":
            continue
        for index, live in live_by_index.items():
            if index in pre_live and not do_split:
                assert live >= pre_live[index]
            else:
                assert live >= 2   # split children start fully placed


# -- invariant 3: seeded mid-migration deaths converge -----------------------


@settings(max_examples=25, deadline=None)
@given(victim_is_target=st.booleans(),
       threshold=st.integers(min_value=0, max_value=3),
       data=st.data())
def test_kill_mid_move_converges(victim_is_target, threshold, data):
    transport = KillAfter(CostModel())
    federation, catalog = make_recorded_cluster(members=8,
                                                transport=transport)
    reconciler = Reconciler().attach(federation)
    spec = catalog.get("books-c")
    shard = data.draw(st.sampled_from(spec.shards))
    source = shard.replicas[0]
    target = next(p for p in ("node1", "node2", "node3", "node4")
                  if p not in shard.replicas)
    pre_live = live_count(federation, shard)

    transport.victim = target if victim_is_target else source
    transport.threshold = threshold
    plan = MovePlan("books-c", shard.index, source=source,
                    target=target)
    reconciler.executor.execute(plan)   # may complete or give up

    # Whatever happened, the victim's death never dropped the shard
    # below its pre-migration live count: give-up leaves the catalog
    # untouched, completion swaps a live copy in atomically.
    spec_now = catalog.get("books-c")
    shard_now = next(s for s in spec_now.shards
                     if s.index == shard.index)
    live_now = [r for r in shard_now.replicas
                if not transport.is_down(r)]
    assert len(live_now) >= pre_live - (
        1 if not victim_is_target else 0)
    # The dead peer revives; a reconcile finds target replication
    # whole and the collection answers byte-exactly everywhere.
    for peer in ("node1", "node2", "node3", "node4"):
        transport.revive_peer(peer)
    assert reconciler.reconcile() == 0
    spec_final = catalog.get("books-c")
    for s in spec_final.shards:
        assert len(s.replicas) >= spec_final.replication_factor
        for replica in s.replicas:
            assert s.local_name in federation.peer(replica).documents
    result = federation.run(SCAN, at="local",
                            strategy=Strategy.BY_PROJECTION)
    assert len(result.items) == 8


# -- invariant 4: a reshape landing mid-repair-copy ---------------------------


def interleave(transport, trigger: str, action) -> None:
    """Run ``action`` once, inside the first fetch of document
    ``trigger`` — after that copy resolved its shard, before its
    cutover."""
    fetch, pending = transport.fetch_document, [action]

    def fetch_document(owner, local_name, stats):
        if local_name == trigger and pending:
            pending.pop()()
        return fetch(owner, local_name, stats)

    transport.fetch_document = fetch_document


def reshape_mid_repair(repaired: str, other: str, split: bool) -> None:
    """Evict node1 (it held ``#s0`` and ``#s3``), and let shard
    ``other`` split or move while the repair copy of ``repaired`` is
    in flight, then check placement truth. (Repair runs ``#s0`` first,
    then ``#s3``.)"""
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    reconciler = Reconciler().attach(cluster)
    catalog = cluster.catalog

    def reshape():
        shard = next(s for s in catalog.get("books-c").shards
                     if s.local_name == other)
        if split:
            assert reconciler.split("books-c", shard.index)
        else:
            assert reconciler.move("books-c", shard.index,
                                   shard.replicas[0])

    def stored():
        return {(name, document) for name, peer in cluster.peers.items()
                for document in peer.documents}

    before = stored()
    interleave(cluster.transport, repaired, reshape)
    cluster.transport.kill_peer("node1")
    while tracker.view.state("node1") != EVICTED:
        tracker.tick()
    reconciler.collect()      # superseded copies retire lazily

    spec = catalog.get("books-c")
    placed = {(replica, shard.local_name)
              for shard in spec.shards for replica in shard.replicas}
    # Every replica the catalog places holds its fragment, and nothing
    # was stored that is neither placed, rolled back nor retired (a
    # repaired shard that split mid-copy made its copy a stale,
    # rolled-back no-op).
    assert placed <= stored()
    assert stored() - before <= placed
    # The eviction's reconcile went on until nothing was short: the
    # children of a split it raced were healed on its next pass.
    assert all(len(s.replicas) >= spec.replication_factor
               for s in spec.shards)
    assert reconciler.reconcile() == 0
    oracle = make_single_owner().run(
        SCAN.replace("xrpc://books-c", "xrpc://owner"), at="local",
        strategy=Strategy.BY_PROJECTION)
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) \
        == serialize_sequence(oracle.items)


def test_split_mid_repair_copy_leaves_no_phantom_replica():
    """Shard 1 splits while shard 3's repair copy is in flight: the
    split renumbers ``#s3`` to index 4, and a cutover addressed by the
    plan-time index 3 would register the copy on ``#s2`` instead — a
    replica that holds nothing."""
    reshape_mid_repair("books.xml#s3", "books.xml#s1", split=True)


def test_repaired_shard_splitting_mid_copy_is_a_rolled_back_noop():
    reshape_mid_repair("books.xml#s3", "books.xml#s3", split=True)


@settings(max_examples=25, deadline=None)
@given(repaired=st.sampled_from(["books.xml#s0", "books.xml#s3"]),
       split=st.booleans(), data=st.data())
def test_reshape_mid_repair_copy_keeps_placements_true(repaired, split,
                                                       data):
    other = data.draw(st.sampled_from(
        [f"books.xml#s{i}" for i in range(4)
         if f"books.xml#s{i}" != repaired]))
    reshape_mid_repair(repaired, other, split)


def test_give_up_emits_failure_and_leaves_catalog_alone():
    transport = KillAfter(CostModel(), victim=None)
    federation, catalog = make_recorded_cluster(members=6,
                                                transport=transport)
    executor = MigrationExecutor(federation)
    spec = catalog.get("books-c")
    shard = spec.shards[0]
    target = next(p for p in ("node1", "node2", "node3", "node4")
                  if p not in shard.replicas)
    # Dead target from the start: every verify read-back fails.
    transport.kill_peer(target)
    epoch = catalog.epoch()
    assert not executor.execute(MovePlan(
        "books-c", shard.index, source=shard.replicas[0],
        target=target))
    assert catalog.epoch() == epoch
    assert executor.stats()["migrations_failed"] == 1
    # Rollback removed the half-copied fragment from the dead target.
    assert shard.local_name not in federation.peer(target).documents


def test_stale_plans_are_noops():
    federation, catalog = make_recorded_cluster(members=6)
    executor = MigrationExecutor(federation)
    spec = catalog.get("books-c")
    shard = spec.shards[0]
    epoch = catalog.epoch()
    # Target already a replica.
    assert not executor.execute(MovePlan(
        "books-c", shard.index, source=shard.replicas[0],
        target=shard.replicas[1]))
    # Source not a replica.
    assert not executor.execute(MovePlan(
        "books-c", shard.index, source="local",
        target="node4"))
    # Unknown shard index.
    assert not executor.execute(SplitPlan("books-c", 99, at_member=1))
    assert catalog.epoch() == epoch
    assert executor.stats()["migrations_failed"] == 0


def test_a_moved_replica_keeps_the_copied_text_as_its_serialization(
        whole_emits):
    """The target stores the source's text, which is canonical: the
    read-back and later queries slice it, nothing emits the copy. The
    read-back compares the adopted text with itself, so the round trip
    is checked here: the copy's rows serialise to that text."""
    federation, catalog = make_recorded_cluster(members=6)
    shard = catalog.get("books-c").shards[0]
    target = next(node for node in ("node1", "node2", "node3", "node4")
                  if node not in shard.replicas)
    text = federation.peer(shard.replicas[0]).serialized(shard.local_name)
    assert MigrationExecutor(federation).execute(MovePlan(
        "books-c", shard.index, source=shard.replicas[0], target=target))
    federation.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    copy = federation.peer(target).document(shard.local_name)
    assert cached_serialization(copy) == text
    assert whole_emits(copy) == 0
    assert serialize(Document(copy.uri, copy.columns)) == text


def test_retire_refuses_to_break_replication():
    federation, catalog = make_recorded_cluster(members=6)
    executor = MigrationExecutor(federation)
    spec = catalog.get("books-c")
    shard = spec.shards[0]
    # At exactly target replication: retiring any replica must refuse.
    assert not executor.execute(RetirePlan("books-c", shard.index,
                                           shard.replicas[0]))
    # Over-replicate by hand, then retiring works.
    federation.peer("node4").store(
        shard.local_name,
        federation.peer(shard.replicas[0]).serialized(shard.local_name))
    from dataclasses import replace as dc_replace
    from repro.cluster.catalog import with_replicas
    wider = tuple(
        with_replicas(s, s.replicas + ("node4",))
        if s.index == shard.index else s for s in spec.shards)
    catalog.replace(dc_replace(spec, shards=wider), reason="test")
    assert executor.execute(RetirePlan("books-c", shard.index, "node4"))
    spec_now = catalog.get("books-c")
    assert "node4" not in spec_now.shards[shard.index].replicas


# -- an eviction landing between the copy and the cutover --------------------


def evict_on_fetch(cluster, tracker, victim: str, owner: str):
    """Force-evict ``victim`` inside the first document fetch from peer
    ``owner`` (a target's first fetch is its read-back), and return a
    fresh executor for the plan under test."""
    fetch, pending = cluster.transport.fetch_document, [victim]

    def fetch_document(peer, local_name, stats):
        if peer.name == owner and pending:
            tracker.evict(pending.pop())
        return fetch(peer, local_name, stats)

    cluster.transport.fetch_document = fetch_document
    return MigrationExecutor(cluster)


def test_split_children_skip_a_source_evicted_mid_copy():
    """``#s0`` (node1, node2) splits; node2 is evicted while the parent
    is read off node1. The children go on node1 alone, and the copies
    stored on node2 are removed, not placed."""
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    executor = evict_on_fetch(cluster, tracker, "node2", owner="node1")
    assert executor.execute(SplitPlan("books-c", 0, at_member=1))
    children = [s for s in cluster.catalog.get("books-c").shards
                if s.local_name.startswith("books.xml#s0.")]
    assert [s.replicas for s in children] == [("node1",), ("node1",)]
    assert not [name for name in cluster.peer("node2").documents
                if name.startswith("books.xml#s0.")]


def test_move_to_a_target_evicted_after_its_read_back_is_a_noop():
    """Swapping an evicted target in for a live source would leave
    ``#s0`` one serving replica where it had two: the move is stale,
    rolled back, and the placement keeps its source."""
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    executor = evict_on_fetch(cluster, tracker, "node3", owner="node3")
    assert not executor.execute(MovePlan("books-c", 0, "node1", "node3"))
    assert cluster.catalog.get("books-c").shards[0].replicas \
        == ("node1", "node2")
    assert "books.xml#s0" not in cluster.peer("node3").documents
    assert executor.stats()["moves"] == 0


def test_repair_onto_a_target_evicted_after_its_read_back_is_a_noop():
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    tracker.evict("node1")                        # #s0 left on node2
    executor = evict_on_fetch(cluster, tracker, "node3", owner="node3")
    assert not executor.execute(ReplicatePlan("books-c", 0, "node3"))
    assert cluster.catalog.get("books-c").shards[0].replicas == ("node2",)
    assert "books.xml#s0" not in cluster.peer("node3").documents

"""Operating a sharded collection: split, lose a peer, decommission one,
and lose a shard's last source.

A hash-partitioned people collection (4 shards x 2 replicas over five
nodes) is queried through a sequence of operator actions and failures,
and every answer is checked against the unsharded document:

1. the operator splits a shard;
2. node2 dies; the failure detector's ticks take it alive -> suspect
   -> dead -> evicted, and the reconciler re-replicates its shards;
3. node3 dies; once it is dead the operator decommissions it: the
   drain re-replicates what it held and retires its now-surplus
   placements (catalog surgery, no bytes move), then evicts it
   without waiting for the detector;
4. node6 joins, node1 goes dark at the wire and the operator evicts
   node4: the shard whose only replica left is node1 cannot be
   repaired (its copy tries its one source, then gives up loudly), and
   a query over the collection fails with ``ShardUnavailableError``.
   Once node1 is revived, the next reconcile heals the shard.

The two queries are a count (summed over the shards) and a ``some``
quantifier (or-ed over the shards): each shard answers for its part.

Run:  python examples/cluster_operations.py
"""

import os
import tempfile

from repro import Federation, Strategy, parse_document
from repro.cluster import (
    ClusterCatalog, MembershipTracker, Reconciler, ShardUnavailableError,
    create_sharded_collection,
)
from repro.obs import EventLog

NODES = ["node1", "node2", "node3", "node4", "node5"]

PEOPLE = "<site><people>" + "".join(
    f'<person id="p{n}"><age>{18 + (7 * n) % 50}</age></person>'
    for n in range(24)) + "</people></site>"

PERSONS = ('doc("xrpc://{host}/people.xml")'
           '/child::site/child::people/child::person')
QUERIES = {
    "count": "count(" + PERSONS + ")",
    "some": "some $p in " + PERSONS + " satisfies $p/age > 60",
}


def check(federation, step: str) -> None:
    answers = []
    for name, query in QUERIES.items():
        sharded = federation.run(query.format(host="people-c"), at="local",
                                 strategy=Strategy.BY_FRAGMENT)
        single = federation.run(query.format(host="origin"), at="local",
                                strategy=Strategy.BY_FRAGMENT)
        if sharded.items != single.items:
            raise SystemExit(f"{step}: {name} answered {sharded.items}, "
                             f"the unsharded document {single.items}")
        answers.append(f"{name} {sharded.items[0]}")
    spec = federation.catalog.get("people-c")
    placement = " ".join(f"s{shard.index}:{'+'.join(shard.replicas)}"
                         for shard in spec.shards)
    print(f"{step:28s} {', '.join(answers):20s} {placement}")


def main() -> None:
    federation = Federation(catalog=ClusterCatalog())
    for name in NODES:
        federation.add_peer(name)
    create_sharded_collection(
        federation, federation.catalog, name="people-c",
        document=parse_document(PEOPLE), document_name="people.xml",
        container_path=("site", "people"), member="person",
        shard_count=4, replication_factor=2, partitioning="hash")
    federation.add_peer("origin").store("people.xml", PEOPLE)
    federation.add_peer("local")
    for name in ("origin", "local"):    # they take no placements
        federation.peer_view.drain(name)
    events = EventLog().attach(federation)
    detector = MembershipTracker().attach(federation)
    reconciler = Reconciler().attach(federation)

    check(federation, "hash-partitioned")
    reconciler.split("people-c", 0)
    check(federation, "shard 0 split")

    federation.transport.kill_peer("node2")
    while federation.peer_view.state("node2") != "evicted":
        detector.tick()
    check(federation, "node2 evicted, repaired")

    federation.transport.kill_peer("node3")
    while federation.peer_view.state("node3") != "dead":
        detector.tick()
    drained = reconciler.drain("node3")
    detector.evict("node3")
    check(federation, "node3 drained and evicted")

    federation.add_peer("node6")
    federation.transport.kill_peer("node1")
    detector.evict("node4")
    for event in events.recent(kind="repair_failed"):
        print(f"  {event.severity:8s} {event.message}")
    try:
        check(federation, "node1 dark, node4 evicted")
    except ShardUnavailableError as error:
        print(f"{'node1 dark, node4 evicted':28s} {type(error).__name__}")
    federation.transport.revive_peer("node1")
    reconciler.reconcile()
    check(federation, "node1 revived, repaired")

    print(f"\nnode3 drained to zero placements: {drained}")
    print("cutovers:", ", ".join(
        f"{event.attrs.get('op', 'repair')} s{event.attrs['shard']}"
        for event in events.recent()
        if event.kind in ("rebalance_completed", "repair_completed")))
    with tempfile.TemporaryDirectory() as out:
        written = events.export_jsonl(os.path.join(out, "events.jsonl"))
    print(f"the event log exports as {written} JSON lines")


if __name__ == "__main__":
    main()

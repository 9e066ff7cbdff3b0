"""Sharded & replicated collection cluster on top of the federation.

The paper distributes whole documents across peers: one hot document
means one hot peer. This package adds horizontal data partitioning so
the same query can fan out over N peers holding N shards of one
logical collection:

* :mod:`repro.cluster.catalog` — logical collection names mapped to
  shard sets with per-shard replica placements, epoch-versioned;
* :mod:`repro.cluster.partitioner` — splitting an XML corpus into
  shard fragment documents by document-order range or content hash;
* :mod:`repro.cluster.placement` — storing shard replicas on peers
  round-robin and registering the collection;
* :mod:`repro.cluster.router` — scatter-gather execution of logical
  call sites: per-shard rewrite, least-loaded replica selection,
  transparent failover, aggregate pushdown;
* :mod:`repro.cluster.gather` — shard-order-stable result merging and
  shard-document reassembly for data shipping;
* :mod:`repro.cluster.membership` — the :class:`PeerView` every
  liveness question is answered from (may a peer serve, may it accept
  a replica, in which order), and the failure detector writing into
  it: probe ticks plus the router's attempts drive each replica
  through ``alive → suspect → dead → evicted`` with hysteresis, ending
  in placement evictions;
* :mod:`repro.cluster.rebalance` — the one placement loop: one
  load-aware scoring function, and the :class:`Reconciler` that diffs
  the desired placement (every shard at its replication factor of
  serving replicas, nothing on a draining peer) against the catalog
  and runs what the diff yields — re-replicating after evictions,
  draining a peer for decommission — beside the heat policy's
  migrations (split a hot shard, move a replica to a cooler peer);
* :mod:`repro.cluster.migrate` — the one way a placement changes
  peers (replicate, move, split, retire), staged behind the epoch
  machinery: copy → byte-identity verify → atomic cutover → lazy
  retirement, with rollback/retry on mid-migration deaths.

Quickstart::

    from repro import Federation, parse_document
    from repro.cluster import ClusterCatalog, create_sharded_collection

    federation = Federation(catalog=ClusterCatalog())
    for name in ("node1", "node2", "node3", "node4"):
        federation.add_peer(name)
    people = parse_document("<site><people>" + "".join(
        f'<person id="p{n}"/>' for n in range(8)) + "</people></site>")
    create_sharded_collection(
        federation, federation.catalog, name="people-c", document=people,
        document_name="people.xml", container_path=("site", "people"),
        member="person", shard_count=4, replication_factor=2)
    federation.add_peer("local")
    result = federation.run('count(doc("xrpc://people-c/people.xml")'
                            '/child::site/child::people/child::person)',
                            at="local")
    print(result.items)                 # [8]
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(globals(), {
    ".catalog": "ClusterCatalog ClusterError CollectionSpec ShardInfo",
    ".gather": "aggregate_combiner concatenate merge_shard_documents",
    ".membership": "ALIVE SUSPECT DEAD EVICTED MembershipTracker PeerView",
    ".partitioner": "HashPartitioner Partitioner RangePartitioner "
                    "collection_members make_partitioner partition_document",
    ".migrate": "BoundaryPartitioner MigrationExecutor",
    ".placement": "InsufficientHealthyPeersError create_sharded_collection "
                  "round_robin_placement shard_local_name",
    ".rebalance": "LoadScorer MovePlan PeerScore Reconciler ReplicatePlan "
                  "RetirePlan SplitPlan",
    ".router": "ClusterRouter ShardUnavailableError rewrite_doc_uris",
})

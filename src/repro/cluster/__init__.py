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
* :mod:`repro.cluster.membership` — the failure detector: probe ticks
  plus passive transport evidence drive each replica through
  ``alive → suspect → dead → evicted`` with hysteresis, feeding
  catalog health marks and placement evictions;
* :mod:`repro.cluster.repair` — finding and queueing under-replicated
  shard fragments after evictions (the migration executor copies them
  onto healthy peers);
* :mod:`repro.cluster.rebalance` — the load-aware control loop: one
  shared peer/shard scoring function and migration planning (split a
  hot shard, move a replica to a cooler peer, drain a peer for
  decommission);
* :mod:`repro.cluster.migrate` — the one way a placement changes
  peers (replicate, move, split, retire), staged behind the epoch
  machinery: copy → byte-identity verify → atomic cutover → lazy
  retirement, with rollback/retry on mid-migration deaths.

Quickstart::

    from repro import Federation
    from repro.cluster import ClusterCatalog, create_sharded_collection

    federation = Federation()
    for name in ("node1", "node2", "node3", "node4"):
        federation.add_peer(name)
    federation.add_peer("local")
    catalog = ClusterCatalog()
    federation.attach_catalog(catalog)
    create_sharded_collection(
        federation, catalog, name="people-c", document=people_doc,
        document_name="people.xml", container_path=("site", "people"),
        member="person", shard_count=4, replication_factor=2)
    federation.run('count(doc("xrpc://people-c/people.xml")'
                   '/child::site/child::people/child::person)',
                   at="local")
"""

from repro.cluster.catalog import (
    ClusterCatalog, ClusterError, CollectionSpec, ShardInfo,
)
from repro.cluster.gather import (
    aggregate_combiner, concatenate, merge_shard_documents,
)
from repro.cluster.membership import (
    ALIVE, DEAD, EVICTED, SUSPECT, MembershipTracker,
)
from repro.cluster.partitioner import (
    HashPartitioner, Partitioner, RangePartitioner, collection_members,
    make_partitioner, partition_document,
)
from repro.cluster.migrate import BoundaryPartitioner, MigrationExecutor
from repro.cluster.placement import (
    InsufficientHealthyPeersError, create_sharded_collection,
    healthy_peers, round_robin_placement, shard_local_name,
)
from repro.cluster.rebalance import (
    LoadScorer, MovePlan, PeerScore, Rebalancer, ReplicatePlan, SplitPlan,
)
from repro.cluster.repair import RepairEngine, RepairTask
from repro.cluster.router import (
    ClusterRouter, ShardUnavailableError, rewrite_doc_uris,
)

__all__ = [
    "ClusterCatalog", "ClusterError", "CollectionSpec", "ShardInfo",
    "HashPartitioner", "Partitioner", "RangePartitioner",
    "collection_members", "make_partitioner", "partition_document",
    "create_sharded_collection", "round_robin_placement",
    "shard_local_name", "healthy_peers",
    "InsufficientHealthyPeersError",
    "ClusterRouter", "ShardUnavailableError", "rewrite_doc_uris",
    "aggregate_combiner", "concatenate", "merge_shard_documents",
    "ALIVE", "SUSPECT", "DEAD", "EVICTED", "MembershipTracker",
    "RepairEngine", "RepairTask",
    "PeerScore", "LoadScorer", "MovePlan", "SplitPlan", "ReplicatePlan",
    "Rebalancer", "MigrationExecutor", "BoundaryPartitioner",
]

"""Shard placement: turning one document into a registered, replicated
cluster collection.

:func:`create_sharded_collection` is the cluster bootstrap: it
partitions the source document (:mod:`repro.cluster.partitioner`),
stores every shard fragment on ``replication_factor`` peers chosen
round-robin (so consecutive shards land on disjoint replica sets
whenever the fleet allows it) among the peers the federation's
:class:`~repro.cluster.membership.PeerView` lets accept a replica, and
registers the resulting :class:`~repro.cluster.catalog.CollectionSpec`
in the catalog — bumping the membership epoch exactly once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.catalog import (
    ClusterCatalog, ClusterError, CollectionSpec, ShardInfo,
)
from repro.cluster.partitioner import (
    Partitioner, make_partitioner, partition_document,
)
from repro.xmldb.document import Document

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system.federation import Federation


class InsufficientHealthyPeersError(ClusterError):
    """Too few peers accept a replica to satisfy the requested
    replication — placing on down/dead/suspect/draining peers would
    only fake the replica count."""


def shard_local_name(document: str, index: int) -> str:
    """The per-peer document name of one shard fragment."""
    return f"{document}#s{index}"


def round_robin_placement(peers: list[str], shard_count: int,
                          replication_factor: int) -> list[tuple[str, ...]]:
    """Replica sets per shard: shard ``i`` lands on peers
    ``i, i+1, .. i+r-1 (mod fleet)``, spreading both primaries and
    replicas evenly."""
    if replication_factor < 1:
        raise ClusterError(
            f"replication factor must be >= 1, got {replication_factor}")
    if replication_factor > len(peers):
        raise InsufficientHealthyPeersError(
            f"replication factor {replication_factor} exceeds the "
            f"{len(peers)}-peer fleet")
    return [
        tuple(peers[(shard + offset) % len(peers)]
              for offset in range(replication_factor))
        for shard in range(shard_count)
    ]


def create_sharded_collection(federation: "Federation",
                              catalog: ClusterCatalog,
                              name: str,
                              document: Document,
                              document_name: str,
                              container_path: tuple[str, ...],
                              member: str,
                              shard_count: int,
                              replication_factor: int = 2,
                              peers: list[str] | None = None,
                              partitioning: str = "range",
                              partitioner: Partitioner | None = None,
                              key_attribute: str = "id") -> CollectionSpec:
    """Partition ``document`` and register it as collection ``name``.

    ``peers`` (default: every current federation peer, sorted) is the
    fleet shards are placed on. Each shard is stored on its replica
    peers under :func:`shard_local_name`; queries then address
    ``xrpc://{name}/{document_name}``.
    """
    if federation.peers.get(name) is not None:
        raise ClusterError(
            f"collection name {name!r} collides with a peer name")
    if peers is None:
        peers = sorted(federation.peers)
    if not peers:
        raise ClusterError("no peers available for shard placement")
    for peer_name in peers:
        federation.peer(peer_name)  # raises on unknown peer
    # Fresh fragments land only where the view accepts a replica.
    usable = [peer for peer in peers
              if federation.peer_view.accepts(peer)]
    if len(usable) < replication_factor:
        raise InsufficientHealthyPeersError(
            f"collection {name!r} needs {replication_factor} healthy "
            f"peers, only {len(usable)} of {len(peers)} remain")
    peers = usable

    if partitioner is None:
        partitioner = make_partitioner(partitioning, key_attribute)
    partitioning_kind = partitioner.kind

    fragments = partition_document(
        document, container_path, member, shard_count, partitioner,
        uri_for_shard=lambda s: f"xrpc://{name}/"
                                f"{shard_local_name(document_name, s)}")
    placements = round_robin_placement(peers, shard_count,
                                       replication_factor)

    shards: list[ShardInfo] = []
    for index, ((fragment, member_count), replicas) in enumerate(
            zip(fragments, placements)):
        local_name = shard_local_name(document_name, index)
        for replica in replicas:
            federation.peer(replica).store(local_name, fragment)
        shards.append(ShardInfo(index=index, local_name=local_name,
                                replicas=replicas, members=member_count))

    spec = CollectionSpec(name=name, document=document_name,
                          container_path=container_path, member=member,
                          shards=tuple(shards),
                          partitioning=partitioning_kind,
                          replication_factor=replication_factor)
    catalog.register(spec)
    return spec

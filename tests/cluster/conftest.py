"""Shared fixtures for the cluster test package: a small hand-written
library corpus plus builders for sharded/unsharded federation pairs."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterCatalog, create_sharded_collection
from repro.runtime import Transport, VirtualClock
from repro.system.federation import Federation
from repro.xmldb.parser import parse_document

#: 10 members under library/books, with non-member content before and
#: after the container (the partitioner must keep it exactly once).
LIBRARY_XML = (
    "<library>"
    "<meta><curator>Ann</curator><founded>1602</founded></meta>"
    "<books>"
    + "".join(
        f'<book id="b{i}"><title>Book {i}</title>'
        f"<year>{2000 + i}</year><pages>{100 + 10 * i}</pages></book>"
        for i in range(10))
    + "</books>"
    "<staff><clerk>Bob</clerk></staff>"
    "</library>"
)

LIBRARY_CONTAINER = ("library", "books")
LIBRARY_MEMBER = "book"
NODES = ["node1", "node2", "node3", "node4"]


def library_document(uri: str = "xrpc://books-c/books.xml"):
    return parse_document(LIBRARY_XML, uri=uri)


def virtual_wire() -> Transport:
    """The wire of a replayable drill: virtual time, and the modelled
    network time charged per transmission — on a zero-delay wire every
    healthy peer's latency is exactly 0, the health baseline is 0, and
    a degraded replica is never demoted
    (``tests/obs/test_health.py::test_zero_baseline_never_demotes``)."""
    return Transport(clock=VirtualClock(), time_scale=1.0)


def make_cluster(shard_count: int = 4, replication_factor: int = 2,
                 partitioning: str = "range",
                 nodes: list[str] | None = None,
                 transport: Transport | None = None) -> Federation:
    """A federation with the library sharded as ``books-c``."""
    federation = Federation(catalog=ClusterCatalog(), transport=transport)
    nodes = nodes if nodes is not None else list(NODES)
    for node in nodes:
        federation.add_peer(node)
    federation.add_peer("local")
    create_sharded_collection(
        federation, federation.catalog, name="books-c",
        document=library_document(), document_name="books.xml",
        container_path=LIBRARY_CONTAINER, member=LIBRARY_MEMBER,
        shard_count=shard_count, replication_factor=replication_factor,
        peers=nodes, partitioning=partitioning)
    return federation


def make_single_owner() -> Federation:
    """The unsharded baseline: the same library on one peer."""
    federation = Federation()
    federation.add_peer("owner").store(
        "books.xml", library_document(uri="xrpc://owner/books.xml"))
    federation.add_peer("local")
    return federation


@pytest.fixture
def cluster() -> Federation:
    return make_cluster()


@pytest.fixture
def single_owner() -> Federation:
    return make_single_owner()

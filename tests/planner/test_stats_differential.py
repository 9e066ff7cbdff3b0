"""Differential test: the per-key statistics views against the eager
passes they replaced (``tests/oracle/stats_reference.py``).

The documents come from three generators the suite already has —
printed XML text (comments, PIs, CDATA, both quote styles, non-ASCII
names and content, so the UTF-8 scale is not 1), value trees (duplicate,
numeric, padded and empty values on elements and attributes) and
builder trees (mixed content, fragments and document nodes). Property:
for every key the reference has, the view answers the same bucket; for
keys it has not, None; the scalar figures are equal; and a collection
view over 1–4 shards equals the reference merge of the shards'
references.

Tier-1 runs a small seeded sample; CI's ``fuzz`` job runs the same
tests under ``--hypothesis-profile=long``. The pinned numbers at the
end are every candidate estimate of the ledger's queries, bit for bit:
taken from the commit before the views existed, and re-taken when the
value histograms left: a predicate now prices at the one filter
selectivity, so the estimates of the texts that compare a value (the
semijoin, sharded or not, and the two local texts reading ``age <
40``) moved; no ranking did.
"""

from hypothesis import given, strategies as st
import pytest

from repro.planner.stats import compute_document_stats, merge_document_stats
from repro.workloads import (
    BENCHMARK_QUERY, SHARDED_BENCHMARK_QUERY, build_federation,
    build_sharded_federation,
)
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize
from tests.conftest import fuzz_settings
from tests.oracle.stats_reference import (
    merge_reference_stats, reference_document_stats,
)
from tests.planner.test_prepared import _ledger_workloads
from tests.xmldb.test_parser_differential import documents
from tests.xquery.test_indexed_equivalence import xml_trees
from tests.xquery.test_predicate_equivalence import value_trees

_documents = st.one_of(
    documents().map(lambda text: parse_document(text, uri="d.xml")),
    value_trees(), xml_trees())

#: Keys no generated document carries (and shapes that are not keys).
_ABSENT = ("nope", "@nope", "#nope", "@", "", "text()", "*")


def _agree(view, reference) -> None:
    assert (view.serialized_bytes, view.nodes, view.elements) == (
        reference.serialized_bytes, reference.nodes, reference.elements)
    for key in (*reference.tags, *_ABSENT, "#text"):
        assert view.tag(key) == reference.tags.get(key), key
    assert view.keys_built() == sorted(reference.tags)


@given(_documents, st.booleans())
@fuzz_settings(150)
def test_view_equals_the_eager_passes(document, exact_bytes):
    exact = len(serialize(document).encode()) if exact_bytes else None
    _agree(compute_document_stats(document, "d.xml", exact),
           reference_document_stats(document, exact))


@given(st.lists(_documents, min_size=1, max_size=4))
@fuzz_settings(60)
def test_collection_view_equals_the_merged_references(shards):
    sizes = [len(serialize(shard).encode()) for shard in shards]
    _agree(merge_document_stats(
               [compute_document_stats(shard, "s.xml", size)
                for shard, size in zip(shards, sizes)], uri="c.xml"),
           merge_reference_stats(
               [reference_document_stats(shard, size)
                for shard, size in zip(shards, sizes)]))


def test_xmark_documents_key_for_key():
    federation = build_federation(0.02)
    for peer, name in (("peer1", "people.xml"), ("peer2", "auctions.xml")):
        document = federation.peer(peer).documents[name]
        exact = len(serialize(document).encode())
        _agree(compute_document_stats(document, name, exact),
               reference_document_stats(document, exact))


# -- estimates, as they were before the views --------------------------------

_BENCHMARK = (
    ("by-projection", 0.001628233725),
    ("by-fragment", 0.002168517),
    ("by-projection+ship[peer1]", 0.0033455303249999998),
    ("by-projection+ship[peer2]", 0.0034097173499999995),
    ("by-fragment+ship[peer1]", 0.0035571614999999994),
    ("by-fragment+ship[peer2]", 0.003750739499999999),
    ("by-value", 0.004188368999999999),
    ("data-shipping", 0.005087534999999999),
)
#: Priced at one message pair per cover peer (2 for 4 shards x 2
#: replicas on 4 nodes) since a scatter became one Bulk RPC per peer.
_SHARDED = (
    ("by-projection", 0.0029609871),
    ("by-fragment", 0.0034936395),
    ("by-projection+ship[auctions-c]", 0.00496851735),
    ("by-projection+ship[people-c]", 0.00497803665),
    ("by-fragment+ship[people-c]", 0.005198187),
    ("by-fragment+ship[auctions-c]", 0.0053057595),
    ("data-shipping", 0.006906608999999999),
    ("by-value", 0.006936263999999999),
)
#: One number per ``LOCAL_QUERIES`` text: on one peer nothing ships, so
#: the four strategies' candidates are priced alike.
_LOCAL = (0.00011574, 0.00013167, 0.000172215, 0.000326115,
          0.00012465, 0.000270315, 0.000160065,
          0.00016074, 0.00013365, 0.00012465, 0.00012465)
_LOCAL_LABELS = ("data-shipping", "by-value", "by-fragment",
                 "by-projection")


def _candidates(federation, text, at="local"):
    return federation.planner.plan(text, at=at,
                                   strategy="auto")[1].candidates


def test_benchmark_query_estimates_are_unmoved():
    assert _candidates(build_federation(0.01),
                       BENCHMARK_QUERY) == _BENCHMARK


def test_sharded_benchmark_query_estimates_are_unmoved():
    assert _candidates(build_sharded_federation(0.01, shard_count=4),
                       SHARDED_BENCHMARK_QUERY) == _SHARDED


@pytest.fixture(scope="module")
def local_paths():
    ledger = _ledger_workloads()
    return ledger.LOCAL_QUERIES, ledger.WORKLOADS["local_paths"].build()


@pytest.mark.parametrize("index", range(len(_LOCAL)))
def test_local_paths_estimates_are_unmoved(local_paths, index):
    texts, instance = local_paths
    assert len(texts) == len(_LOCAL)
    assert _candidates(instance.federation, texts[index], at="store") \
        == tuple((label, _LOCAL[index]) for label in _LOCAL_LABELS)

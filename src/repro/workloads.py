"""The Section VII benchmark workload, shared by benchmarks, examples
and integration tests.

``BENCHMARK_QUERY`` is the paper's XMark adaptation of Qn2 (with the
``$c/child::seller`` typo corrected to ``$e/...``): find authors of
annotations of auctions sold by persons younger than 40, where the
people and auctions documents live on two different peers.

The multi-tenant generator at the bottom turns this into a concurrent
workload: N clients issue ``BENCHMARK_QUERY`` *variants* (the age
threshold is the tenant's parameter) against the same shared XMark
documents, so repeated thresholds exercise the runtime's result
cache.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from repro.decompose import Strategy
from repro.errors import XQuerySyntaxError
from repro.net.costmodel import CostModel
from repro.net.stats import RunStats
from repro.system.federation import Federation, RunResult
from repro.xmark import generate_pair
from repro.xquery.lexer import Lexer, TokenType

#: The benchmark query of Section VII (paper Qn2, XMark-ised).
BENCHMARK_QUERY = """
(let $t := (let $s := doc("xrpc://peer1/people.xml")
                      /child::site/child::people/child::person
            return for $x in $s
                   return if ($x/descendant::age < 40) then $x else ())
 return for $e in (let $c := doc("xrpc://peer2/auctions.xml")
                   return $c/descendant::open_auction)
        return if ($e/child::seller/attribute::person = $t/attribute::id)
               then $e/child::annotation else ())/child::author
"""

#: The per-figure scale sweep. The paper uses XMark factors 0.1-1.6
#: (10-160 MB per document); we keep the same x2 geometric spacing at
#: laptop scale.
DEFAULT_SCALES = (0.005, 0.01, 0.02, 0.04, 0.08)


class WorkloadRun(NamedTuple):
    """One strategy's execution over one document pair."""

    strategy: Strategy
    scale: float
    total_document_bytes: int  # combined size of the two source docs
    result: RunResult

    @property
    def stats(self) -> RunStats:
        return self.result.stats


def build_federation(scale: float, seed: int = 20090329,
                     cost_model: CostModel | None = None) -> Federation:
    """Three peers as in the paper's testbed: two data peers plus the
    query originator."""
    people, auctions = generate_pair(
        scale, seed,
        people_uri="xrpc://peer1/people.xml",
        auctions_uri="xrpc://peer2/auctions.xml")
    federation = Federation(cost_model=cost_model)
    federation.add_peer("peer1").store("people.xml", people)
    federation.add_peer("peer2").store("auctions.xml", auctions)
    federation.add_peer("local")
    return federation


def document_bytes(federation: Federation) -> int:
    """Total serialised size of the two benchmark documents."""
    peer1 = federation.peer("peer1")
    peer2 = federation.peer("peer2")
    return (len(peer1.serialized("people.xml").encode())
            + len(peer2.serialized("auctions.xml").encode()))


def run_strategy(federation: Federation, strategy: Strategy,
                 scale: float = 0.0, query: str = BENCHMARK_QUERY,
                 **kwargs) -> WorkloadRun:
    """Execute the benchmark query under one strategy."""
    result = federation.run(query, at="local", strategy=strategy, **kwargs)
    return WorkloadRun(strategy=strategy, scale=scale,
                       total_document_bytes=document_bytes(federation),
                       result=result)


def run_all_strategies(scale: float, seed: int = 20090329,
                       query: str = BENCHMARK_QUERY,
                       cost_model: CostModel | None = None,
                       **kwargs) -> dict[Strategy, WorkloadRun]:
    """Run all four strategies on one freshly generated document pair.

    One federation is shared (the documents are identical), so results
    are directly comparable; correctness across strategies is asserted
    by the integration tests via deep-equal.
    """
    federation = build_federation(scale, seed, cost_model)
    return {
        strategy: run_strategy(federation, strategy, scale, query, **kwargs)
        for strategy in Strategy
    }


# ---------------------------------------------------------------------------
# Multi-tenant concurrent workload
# ---------------------------------------------------------------------------

#: The tenant parameter pool: a small set of age thresholds, so a
#: multi-round workload repeats thresholds and the result cache earns
#: its hits (the paper's projection wins compound across queries).
TENANT_AGE_THRESHOLDS = (25, 30, 35, 40, 45)


def benchmark_query_variant(max_age: int | float | str = 40) -> str:
    """``BENCHMARK_QUERY`` with the tenant's age threshold (a number,
    or one numeric literal as text: ``"18.00"``)."""
    anchor = "< 40"
    if anchor not in BENCHMARK_QUERY:
        # Guard against silent template drift: a no-op replace would
        # collapse every tenant onto one threshold without any error.
        raise ValueError(
            f"BENCHMARK_QUERY no longer contains the {anchor!r} anchor")
    lexer = Lexer(str(max_age))
    try:
        kinds = [lexer.next().type, lexer.next().type]
    except (XQuerySyntaxError, ValueError):
        kinds = []
    if kinds not in ([TokenType.INTEGER, TokenType.END],
                     [TokenType.DOUBLE, TokenType.END]):
        # Anything else would splice query syntax in, not a threshold.
        raise ValueError(f"{max_age!r} is not one numeric literal")
    return BENCHMARK_QUERY.replace(anchor, f"< {max_age}")


class TenantJob(NamedTuple):
    """One query issued by one client of the multi-tenant workload.

    ``strategy`` may be an enum member, a string alias, or ``"auto"``
    (cost-based planning per query) — whatever
    :meth:`~repro.system.federation.Federation.run` accepts.
    """

    client: int
    round: int
    query: str
    at: str = "local"
    strategy: Strategy | str = Strategy.BY_PROJECTION


def multi_tenant_jobs(clients: int = 8, rounds: int = 2,
                      seed: int = 20090329,
                      strategy: Strategy = Strategy.BY_PROJECTION,
                      at: str = "local",
                      rng: random.Random | None = None
                      ) -> list[TenantJob]:
    """N clients × M rounds of benchmark-query variants.

    Each client draws its threshold per round from
    :data:`TENANT_AGE_THRESHOLDS` with an explicitly seeded
    ``random.Random`` (pass ``rng`` to share one generator across
    several calls; never the process-global ``random``), so a
    benchmark cell's job list is byte-identical run to run. With more
    jobs than thresholds, repeats are guaranteed, which is what makes
    the workload exercise cross-query caching.
    """
    if rng is None:
        rng = random.Random(seed)
    return [
        TenantJob(client=client, round=rnd,
                  query=benchmark_query_variant(
                      rng.choice(TENANT_AGE_THRESHOLDS)),
                  at=at, strategy=strategy)
        for rnd in range(rounds)
        for client in range(clients)
    ]


# ---------------------------------------------------------------------------
# Sharded workload (cluster layer)
# ---------------------------------------------------------------------------

#: Virtual host names of the two benchmark collections.
PEOPLE_COLLECTION = "people-c"
AUCTIONS_COLLECTION = "auctions-c"

def _to_sharded(query: str) -> str:
    """Re-host a benchmark query text onto the sharded collections."""
    return (query
            .replace("xrpc://peer1/people.xml",
                     f"xrpc://{PEOPLE_COLLECTION}/people.xml")
            .replace("xrpc://peer2/auctions.xml",
                     f"xrpc://{AUCTIONS_COLLECTION}/auctions.xml"))


#: ``BENCHMARK_QUERY`` aimed at the sharded collections instead of the
#: two single-owner peers: same query, N× the peers.
SHARDED_BENCHMARK_QUERY = _to_sharded(BENCHMARK_QUERY)


def sharded_query_variant(max_age: int | float | str = 40) -> str:
    """``SHARDED_BENCHMARK_QUERY`` with the tenant's age threshold."""
    return _to_sharded(benchmark_query_variant(max_age))


def build_sharded_federation(scale: float, seed: int = 20090329,
                             shard_count: int = 4,
                             replication_factor: int = 2,
                             node_count: int | None = None,
                             partitioning: str = "range",
                             cost_model: CostModel | None = None
                             ) -> Federation:
    """The cluster testbed: the same XMark pair as
    :func:`build_federation`, but sharded over a fleet of data nodes.

    Both documents are partitioned into ``shard_count`` shards placed
    round-robin on ``node_count`` peers (default: one per shard) with
    ``replication_factor`` replicas each, registered in an attached
    :class:`~repro.cluster.catalog.ClusterCatalog`; queries address
    ``xrpc://people-c/people.xml`` / ``xrpc://auctions-c/auctions.xml``
    from the ``local`` originator.
    """
    from repro.cluster import ClusterCatalog, create_sharded_collection
    people, auctions = generate_pair(
        scale, seed,
        people_uri=f"xrpc://{PEOPLE_COLLECTION}/people.xml",
        auctions_uri=f"xrpc://{AUCTIONS_COLLECTION}/auctions.xml")
    federation = Federation(cost_model=cost_model,
                            catalog=ClusterCatalog())
    if node_count is None:
        node_count = shard_count
    nodes = [f"node{index + 1}" for index in range(node_count)]
    for node in nodes:
        federation.add_peer(node)
    federation.add_peer("local")
    create_sharded_collection(
        federation, federation.catalog, name=PEOPLE_COLLECTION,
        document=people, document_name="people.xml",
        container_path=("site", "people"), member="person",
        shard_count=shard_count, replication_factor=replication_factor,
        peers=nodes, partitioning=partitioning)
    create_sharded_collection(
        federation, federation.catalog, name=AUCTIONS_COLLECTION,
        document=auctions, document_name="auctions.xml",
        container_path=("site", "open_auctions"), member="open_auction",
        shard_count=shard_count, replication_factor=replication_factor,
        peers=nodes, partitioning=partitioning)
    return federation


#: A read-heavy tenant scan over the sharded people collection: tiny
#: fixed request, response proportional to the matched members — the
#: workload shape whose wire profile actually shrinks per shard (the
#: semijoin's parameter-carrying requests are duplicated to every
#: shard, so it scatters for capacity, not for message size).
SHARDED_SCAN_QUERY = f"""
for $p in doc("xrpc://{PEOPLE_COLLECTION}/people.xml")
    /child::site/child::people/child::person
return if ($p/child::age < 40) then $p else ()
"""


#: A hot-tenant point lookup: every request matches one person id, so
#: the router's value-index probes prove every other shard empty and
#: skip them — all the served heat lands on the single shard holding
#: that id. This is the skew signal the rebalancer's planner feeds on.
SHARDED_HOT_QUERY = f"""
for $p in doc("xrpc://{PEOPLE_COLLECTION}/people.xml")
    /child::site/child::people/child::person
return if ($p/attribute::id = "person0") then $p/child::name else ()
"""


# ---------------------------------------------------------------------------
# Mixed multi-tenant workload (the planner's figure cells)
# ---------------------------------------------------------------------------

#: The reference-data peer of the mixed workload.
REFDATA_PEER = "refdata"


def refdata_document(entries: int = 40) -> str:
    """A small reference table (currency-rate flavoured): the kind of
    document whose queries the paper's decomposed strategies *lose* on
    — per-message latency dwarfs the bytes saved — so a planner must
    pick data shipping for it while projecting the big documents."""
    rows = "".join(
        f"<entry><code>C{index:02d}</code>"
        f"<rate>{1.0 + index / 17:.4f}</rate>"
        f"<region>r{index % 5}</region></entry>"
        for index in range(entries))
    return f"<rates>{rows}</rates>"


#: Scans the tiny reference table: whole-document shipping beats every
#: decomposed strategy here (one cheap fetch vs. SOAP round trips).
TINY_LOOKUP_QUERY = f"""
for $e in doc("xrpc://{REFDATA_PEER}/rates.xml")/child::rates/child::entry
return if ($e/child::region = "r1") then $e else ()
"""

#: Touches the big people document *and* the tiny reference table: the
#: best plan is mixed — decompose the people call site, ship the
#: reference document — which no single fixed strategy expresses.
MIXED_CROSS_QUERY = f"""
(for $p in doc("xrpc://peer1/people.xml")
           /child::site/child::people/child::person
 return if ($p/descendant::age < 40) then $p/child::name else (),
 doc("xrpc://{REFDATA_PEER}/rates.xml")
     /child::rates/child::entry/child::code)
"""


def build_mixed_federation(scale: float, seed: int = 20090329,
                           refdata_entries: int = 40,
                           cost_model: CostModel | None = None
                           ) -> Federation:
    """:func:`build_federation` plus the :data:`REFDATA_PEER` peer
    holding the small reference table — the testbed whose best
    strategy genuinely differs per query."""
    federation = build_federation(scale, seed, cost_model)
    federation.add_peer(REFDATA_PEER).store(
        "rates.xml", refdata_document(refdata_entries))
    return federation


def mixed_tenant_jobs(clients: int = 6, rounds: int = 2,
                      seed: int = 20090329,
                      strategy: Strategy | str = "auto",
                      at: str = "local",
                      rng: random.Random | None = None) -> list[TenantJob]:
    """The planner's tenant mix: every round, each client
    draws one of three job shapes — the Section VII semijoin (big
    documents, decomposition wins), the tiny reference lookup (data
    shipping wins), or the cross query (a mixed plan wins). A single
    fixed strategy is wrong for at least one shape, so ``auto`` is the
    only strategy that can win every draw."""
    if rng is None:
        rng = random.Random(seed)
    shapes = ("semijoin", "lookup", "cross")
    jobs: list[TenantJob] = []
    for rnd in range(rounds):
        for client in range(clients):
            shape = rng.choice(shapes)
            if shape == "semijoin":
                query = benchmark_query_variant(
                    rng.choice(TENANT_AGE_THRESHOLDS))
            elif shape == "lookup":
                query = TINY_LOOKUP_QUERY
            else:
                query = MIXED_CROSS_QUERY
            jobs.append(TenantJob(client=client, round=rnd, query=query,
                                  at=at, strategy=strategy))
    return jobs


"""The six workloads of the end-to-end ledger.

Each workload names one way users drive the system and one layer that
does most of the work there (``ledger.WORKLOADS`` records why each was
chosen; ``BENCHMARK.json`` and the README repeat it). A workload is
three things:

* ``build()`` — a fresh system under test (documents, federation,
  engine), not yet warmed;
* ``draw(seed, count)`` — the op sequence, a pure function of the
  seed; the program only ever receives the generated query texts and
  document texts;
* ``oracle_documents(version)`` — the same documents for a single-peer
  federation, on which :func:`expected_digests` evaluates every
  distinct query text once.

The documents and the popularity of each query text are part of a
workload's definition; ``--seed`` drives what is drawn from them. (At
XMark scale 0.02 a document has 50 persons: another generator seed is
another workload, not another sample of this one.)

Op counts are fixed (``block_ops`` × ``blocks`` at ``--seconds 10``,
the block count scaled linearly by ``--seconds``) rather than
time-boxed, so cache dynamics, byte counts and ``ops_total`` repeat
exactly for one seed. A block is about 0.2 s of work: the host's speed
changes within seconds, and a block's calibration must still describe
the block.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
import re
from dataclasses import dataclass
from typing import Callable

from repro.runtime.engine import FederationEngine
from repro.system.federation import Federation, RunResult
from repro.workloads import (
    BENCHMARK_QUERY, SHARDED_BENCHMARK_QUERY, TENANT_AGE_THRESHOLDS,
    benchmark_query_variant, build_federation, build_sharded_federation,
)
from repro.xmark import generate_pair
from repro.xmark.generator import XMarkConfig, generate_people
from repro.xmldb.document import Document
from repro.xmldb.serializer import serialize
from repro.xquery.xdm import serialize_sequence

#: The XMark generator seed of every federation's base documents — the
#: repo-wide default, so these are the documents every other benchmark
#: and the ROADMAP's measurements use. ``--seed`` drives the draws.
XMARK_SEED = 20090329

@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``kind == "query"``: run every text in ``texts`` (one for most
    workloads, the 11-query pass for ``local_paths``); ``version`` is
    the document version those answers are checked against.
    ``kind == "store"``: store document version ``version``.
    """

    kind: str
    texts: tuple[str, ...] = ()
    version: int = 0


class Instance:
    """One built system under test, driven through its public API."""

    def __init__(self, federation: Federation, at: str, strategy: str,
                 engine: FederationEngine | None = None,
                 versions: dict[int, str] | None = None):
        self.federation = federation
        self.at = at
        self.strategy = strategy
        self.engine = engine
        self.versions = versions or {}

    def query(self, text: str, trace: bool = False) -> RunResult:
        if self.engine is not None:
            kwargs = {"trace": True} if trace else {}
            return self.engine.submit(text, at=self.at,
                                      strategy=self.strategy,
                                      **kwargs).result()
        return self.federation.run(text, at=self.at,
                                   strategy=self.strategy, trace=trace)

    def store(self, version: int) -> None:
        self.federation.peer("peer1").store("people.xml",
                                            self.versions[version])

    def close(self) -> None:
        if self.engine is not None:
            self.engine.shutdown()


@dataclass(frozen=True)
class Workload:
    name: str
    clients: int
    block_ops: int
    blocks: int          # at ``--seconds 10``
    build: Callable[[], Instance]
    draw: Callable[[int, int], list[Op]]
    warm_texts: tuple[str, ...]
    oracle_documents: Callable[[int], tuple[Document, Document]]

    def ops_for(self, seconds: float) -> int:
        return max(1, round(self.blocks * seconds / 10)) * self.block_ops


# -- oracle -----------------------------------------------------------------

_XRPC_HOST = re.compile(r"xrpc://[^/\"]+/")


def answer_digest(results: list[RunResult]) -> str:
    """What an op answered, as compared with the oracle."""
    text = "\x1e".join(serialize_sequence(r.items) for r in results)
    return hashlib.sha256(text.encode()).hexdigest()


def expected_digests(workload: Workload,
                     ops: list[Op]) -> dict[tuple, str]:
    """``(texts, version) → digest`` for every distinct query op,
    from plain local evaluation on a single-peer federation holding
    the same documents (the paper's claim: decomposed ≡ local)."""
    oracles: dict[int, Federation] = {}
    expected: dict[tuple, str] = {}
    for op in ops:
        key = (op.texts, op.version)
        if op.kind != "query" or key in expected:
            continue
        federation = oracles.get(op.version)
        if federation is None:
            people, auctions = workload.oracle_documents(op.version)
            federation = oracles[op.version] = Federation()
            (federation.add_peer("oracle")
             .store("people.xml", people).store("auctions.xml", auctions))
        expected[key] = answer_digest([
            federation.run(_XRPC_HOST.sub("", text), at="oracle",
                           strategy="data-shipping")
            for text in op.texts])
    return expected


def _base_pair(scale: float) -> Callable[[int],
                                         tuple[Document, Document]]:
    return lambda _version: generate_pair(scale, XMARK_SEED)


def _repeat(*texts: str) -> Callable[[int, int], list[Op]]:
    """A fixed op: nothing to draw, so ``--seed`` changes nothing."""
    return lambda _seed, count: [Op("query", texts)] * count


# -- semijoin_projection / semijoin_shipping / sharded_semijoin -------------

def _build_semijoin(strategy: str) -> Callable[[], Instance]:
    return lambda: Instance(build_federation(0.02, XMARK_SEED),
                            "local", strategy)


def _build_sharded() -> Instance:
    return Instance(
        build_sharded_federation(0.02, XMARK_SEED, shard_count=4,
                                 replication_factor=2),
        "local", "by-projection")


# -- tenant_mix -------------------------------------------------------------

#: 200 age thresholds, 18.00 … 67.75.
TENANT_THRESHOLDS = tuple(f"{18 + step / 4:.2f}" for step in range(200))
ZIPF_S = 1.1


def _build_tenant_mix() -> Instance:
    federation = build_federation(0.02, XMARK_SEED)
    return Instance(federation, "local", "auto",
                    engine=FederationEngine(federation, max_workers=2))


def _draw_tenant_mix(seed: int, count: int) -> list[Op]:
    """``count`` evenly spaced quantiles of the Zipf distribution over
    the ranked thresholds (so every text appears as often as Zipf
    says), in an order shuffled by ``seed``. Which threshold is popular
    is part of the workload: with the ranks shuffled per seed, or the
    texts drawn independently, the hot texts' selectivity - and with
    it p50 - moved 15-20 % from seed to seed."""
    ranked = list(TENANT_THRESHOLDS)
    random.Random(XMARK_SEED).shuffle(ranked)
    weights = [1 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    reach = list(itertools.accumulate(weights))
    ops = [Op("query", (benchmark_query_variant(ranked[bisect.bisect(
               reach, (index + 0.5) / count * reach[-1])]),))
           for index in range(count)]
    random.Random(seed).shuffle(ops)
    return ops


# -- local_paths ------------------------------------------------------------

_LOCAL_SEMIJOIN = _XRPC_HOST.sub("", BENCHMARK_QUERY)

#: One op = one pass over these, all on the peer that holds both
#: documents. Numbers 7-10 are the shapes ROADMAP item 3 lists as still
#: falling to the naive walker (reverse axis, positional predicate,
#: order-by, sibling axis); 11 constructs elements.
LOCAL_QUERIES = (
    'count(doc("people.xml")//person)',
    'doc("people.xml")//profile//interest',
    'doc("auctions.xml")//open_auction//bidder/increase',
    'doc("auctions.xml")//annotation//description//text()',
    'doc("people.xml")//person[descendant::age < 40]/name',
    _LOCAL_SEMIJOIN,
    'doc("auctions.xml")//increase/ancestor::open_auction/child::seller',
    'doc("auctions.xml")//open_auction/child::bidder[1]/child::increase',
    'for $p in doc("people.xml")//person '
    'order by $p/child::name return $p/child::name',
    'doc("people.xml")//person/child::name'
    '/following-sibling::emailaddress',
    'for $p in doc("people.xml")//person '
    'return <row id="{$p/attribute::id}">{$p/child::name}</row>',
)
LOCAL_SCALE = 0.04


def _build_local_paths() -> Instance:
    people, auctions = generate_pair(
        LOCAL_SCALE, XMARK_SEED,
        people_uri="xrpc://store/people.xml",
        auctions_uri="xrpc://store/auctions.xml")
    federation = Federation()
    (federation.add_peer("store")
     .store("people.xml", people).store("auctions.xml", auctions))
    return Instance(federation, "store", "by-projection")


# -- store_churn ------------------------------------------------------------

CHURN_TEXTS = tuple(benchmark_query_variant(age)
                    for age in TENANT_AGE_THRESHOLDS)
STORE_EVERY = 10


def _churn_people(version: int) -> Document:
    """Version 0 is the federation's base document; 1 and 2 are the
    two XMark versions the stores alternate between. Their generator
    seeds are fixed for the same reason as the tenant ranks: 50
    persons are few enough that another seed is another workload."""
    return generate_people(
        XMarkConfig(scale=0.02, seed=XMARK_SEED + version),
        "xrpc://peer1/people.xml")


def _build_store_churn() -> Instance:
    federation = build_federation(0.02, XMARK_SEED)
    return Instance(
        federation, "local", "by-projection",
        engine=FederationEngine(federation, max_workers=1),
        versions={version: serialize(_churn_people(version))
                  for version in (1, 2)})


def _draw_store_churn(seed: int, count: int) -> list[Op]:
    """Every ``STORE_EVERY``-th op stores the other version; the
    queries between are the five variants in equal shares, in an order
    shuffled by ``seed``."""
    stores = count // STORE_EVERY
    texts = [CHURN_TEXTS[index % len(CHURN_TEXTS)]
             for index in range(count - stores)]
    random.Random(seed).shuffle(texts)
    ops: list[Op] = []
    version = 0
    for index in range(count):
        if index % STORE_EVERY == STORE_EVERY - 1:
            version = 1 + (index // STORE_EVERY) % 2
            ops.append(Op("store", version=version))
        else:
            ops.append(Op("query", (texts.pop(),), version))
    return ops


def _churn_oracle_documents(version: int) -> tuple[Document, Document]:
    return _churn_people(version), generate_pair(0.02, XMARK_SEED)[1]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "semijoin_projection",
        clients=1, block_ops=20, blocks=45,
        build=_build_semijoin("by-projection"),
        draw=_repeat(BENCHMARK_QUERY),
        warm_texts=(BENCHMARK_QUERY,) * 3,
        oracle_documents=_base_pair(0.02)),
    Workload(
        "semijoin_shipping",
        clients=1, block_ops=6, blocks=40,
        build=_build_semijoin("data-shipping"),
        draw=_repeat(BENCHMARK_QUERY),
        warm_texts=(BENCHMARK_QUERY,) * 3,
        oracle_documents=_base_pair(0.02)),
    Workload(
        "sharded_semijoin",
        clients=1, block_ops=6, blocks=40,
        build=_build_sharded,
        draw=_repeat(SHARDED_BENCHMARK_QUERY),
        warm_texts=(SHARDED_BENCHMARK_QUERY,) * 3,
        oracle_documents=_base_pair(0.02)),
    Workload(
        "tenant_mix",
        clients=2, block_ops=30, blocks=30,
        build=_build_tenant_mix,
        draw=_draw_tenant_mix,
        warm_texts=(BENCHMARK_QUERY,) * 3,
        oracle_documents=_base_pair(0.02)),
    Workload(
        "local_paths",
        clients=1, block_ops=5, blocks=48,
        build=_build_local_paths,
        draw=_repeat(*LOCAL_QUERIES),
        warm_texts=LOCAL_QUERIES * 2,
        oracle_documents=_base_pair(LOCAL_SCALE)),
    Workload(
        "store_churn",
        clients=1, block_ops=20, blocks=30,
        build=_build_store_churn,
        draw=_draw_store_churn,
        warm_texts=CHURN_TEXTS,
        oracle_documents=_churn_oracle_documents),
)}

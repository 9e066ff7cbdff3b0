"""Executing migration plans: copy → verify → cutover → retire.

Every reshaping operation the rebalancer can plan — moving a replica,
splitting a shard, retiring a redundant copy — runs here as the same
staged protocol behind the catalog's epoch machinery:

1. **Copy** the fragment over the existing ship path
   (``transport.fetch_document`` from a usable replica, ``Peer.store``
   at the destination) inside a ``migrate`` span, with the wire
   charges bound to it.
2. **Verify byte-identity** by reading the copy back *over the wire*
   and comparing against the source text. This proves the bytes landed
   intact and doubles as the liveness check: a destination that died
   mid-copy fails the read-back, not the cutover. A split additionally
   verifies **before anything is stored** that the two child fragments
   merge back byte-exactly into the parent
   (:func:`~repro.cluster.gather.merge_shard_documents` — the same
   reassembly the data-shipping path trusts).
3. **Cut over** with one ``catalog.replace(reason="rebalance")`` —
   one atomic epoch bump computed against a freshly re-read spec, so
   an in-flight scatter sees the old placement or the new one, never a
   torn hybrid. At every point up to and including the cutover the
   shard's live replica count is ≥ what it was when the plan started:
   new copies are placed *before* old ones leave the placement.
4. **Retire** the superseded fragment lazily: the cutover only
   tombstones it; :meth:`MigrationExecutor.collect` removes the bytes
   later, and only after double-checking the catalog no longer places
   that fragment on that peer. An in-flight scatter that snapshotted
   the old epoch can therefore still read the old copy to completion.

Failure discipline matches the repair engine: any
:class:`~repro.errors.NetworkError` during an attempt rolls back every
document stored in that attempt (direct object removal — it works even
when the destination's transport is down) and retries up to
``max_attempts`` with sources re-resolved against the then-current
membership view, then gives up loudly (event + metric, catalog
untouched). A plan that no longer matches the live spec — the shard
healed, moved, or split since planning — resolves to a no-op.
"""

from __future__ import annotations

import threading
from dataclasses import replace as dc_replace

from repro.cluster.catalog import (
    ClusterCatalog, ClusterError, ShardInfo, with_replicas,
)
from repro.cluster.gather import merge_shard_documents
from repro.cluster.partitioner import (
    Partitioner, collection_members, partition_document,
)
from repro.cluster.rebalance import LoadScorer, MovePlan, SplitPlan
from repro.errors import NetworkError
from repro.net.stats import RunStats
from repro.obs.trace import Tracer, bind_stats_span, child_span, current_span
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize

__all__ = ["MigrationExecutor", "BoundaryPartitioner"]


class BoundaryPartitioner(Partitioner):
    """Splits a member list at one boundary: members ``0..at-1`` to
    shard 0, the rest to shard 1. Document-order contiguous, so the
    split preserves range partitioning's order stability."""

    kind = "range"

    def __init__(self, at: int):
        self.at = at

    def assign(self, members, shard_count):
        if shard_count != 2:
            raise ClusterError("boundary partitioner splits into "
                               f"exactly 2 shards, got {shard_count}")
        return [0 if index < self.at else 1
                for index in range(len(members))]


class MigrationExecutor:
    """Runs migration plans with the copy/verify/cutover/retire
    protocol described in the module docstring."""

    def __init__(self, federation=None, catalog: ClusterCatalog | None = None,
                 membership=None, *, scorer: LoadScorer | None = None,
                 events=None, metrics=None, max_attempts: int = 3):
        if max_attempts < 1:
            raise ClusterError(
                f"max_attempts {max_attempts} must be >= 1")
        self.federation = federation
        self.catalog = catalog if catalog is not None else (
            getattr(federation, "catalog", None))
        self.membership = membership if membership is not None else (
            getattr(federation, "membership", None))
        self.scorer = scorer if scorer is not None else LoadScorer(
            federation, catalog=self.catalog, membership=self.membership)
        self.events = events
        self.max_attempts = max_attempts
        self._lock = threading.Lock()
        #: Superseded fragments awaiting physical removal:
        #: ``(peer_name, local_name)`` pairs.
        self.tombstones: list[tuple[str, str]] = []
        self._completed: dict[str, int] = {}
        self._failed = 0
        self._collected = 0
        self._m_migrations = self._m_bytes = None
        self._init_metrics(metrics)

    def _init_metrics(self, metrics) -> None:
        if metrics is None:
            return
        self._m_migrations = metrics.counter(
            "rebalance_migrations_total",
            "migration attempts by operation and outcome",
            ("op", "outcome"))
        self._m_bytes = metrics.counter(
            "rebalance_bytes_total",
            "fragment bytes shipped by migrations", ("op",))

    # -- public API -----------------------------------------------------------

    def execute(self, plan) -> bool:
        """Run one plan to completion, no-op, or give-up. True only
        when a cutover happened."""
        if self.catalog is None or self.federation is None:
            raise ClusterError(
                "migration executor needs a federation and catalog")
        if isinstance(plan, MovePlan):
            return self._run(plan, self._move_attempt)
        if isinstance(plan, SplitPlan):
            return self._run(plan, self._split_attempt)
        raise ClusterError(f"unknown migration plan {plan!r}")

    def retire_replica(self, collection: str, shard_index: int,
                       peer: str) -> bool:
        """Drop one redundant replica from a shard's placement —
        guarded: refuses (False) unless the remaining *usable* replicas
        still meet the collection's ``target_replication``. Pure
        catalog surgery plus a tombstone; no bytes move."""
        try:
            spec = self.catalog.get(collection)
        except ClusterError:
            return False
        shard = self._find_shard(spec, shard_index)
        if shard is None or peer not in shard.replicas:
            return False
        remaining = tuple(r for r in shard.replicas if r != peer)
        usable = [r for r in remaining if self.scorer.usable(r)]
        if not remaining or len(usable) < spec.target_replication:
            return False
        new_shards = tuple(
            with_replicas(s, remaining) if s.index == shard_index else s
            for s in spec.shards)
        self.catalog.replace(dc_replace(spec, shards=new_shards),
                             reason="rebalance", op="retire",
                             shard=shard_index, peer=peer)
        self._tombstone(peer, shard.local_name)
        self._note_done("retire", collection=collection,
                        shard=shard_index, peer=peer, nbytes=0)
        return True

    def collect(self) -> int:
        """Physically remove tombstoned fragments whose placement no
        longer references them. Call between queries/steps: an
        in-flight scatter pinned to an old epoch may still be reading
        the old copy, so retirement is never inline with the cutover."""
        with self._lock:
            pending, self.tombstones = self.tombstones, []
        removed = 0
        for peer_name, local_name in pending:
            if self._still_placed(peer_name, local_name):
                continue  # re-placed since (repair raced): not garbage
            peer = self.federation.peers.get(peer_name)
            if peer is None:
                continue
            if peer.remove(local_name):
                removed += 1
                if self.events is not None:
                    self.events.emit(
                        "rebalance_retired",
                        f"retired {local_name} from {peer_name}",
                        severity="info", peer=peer_name,
                        document=local_name)
        with self._lock:
            self._collected += removed
        return removed

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"splits": self._completed.get("split", 0),
                    "moves": self._completed.get("move", 0),
                    "retires": self._completed.get("retire", 0),
                    "migrations_failed": self._failed,
                    "tombstones": len(self.tombstones),
                    "collected": self._collected}

    # -- shared machinery -----------------------------------------------------

    @staticmethod
    def _find_shard(spec, shard_index: int) -> ShardInfo | None:
        return next((s for s in spec.shards
                     if s.index == shard_index), None)

    def _run(self, plan, attempt_fn) -> bool:
        for attempt in range(1, self.max_attempts + 1):
            placed: list[tuple[str, str]] = []
            try:
                outcome = attempt_fn(plan, placed)
            except NetworkError as exc:
                self._rollback(placed)
                if self.events is not None:
                    self.events.emit(
                        "rebalance_failed",
                        f"{plan.op} of {plan.collection}"
                        f"#s{plan.shard_index} aborted: "
                        f"{type(exc).__name__} (attempt {attempt}/"
                        f"{self.max_attempts})",
                        severity="warning", op=plan.op,
                        collection=plan.collection,
                        shard=plan.shard_index,
                        error=type(exc).__name__)
                continue
            return outcome
        return self._give_up(plan, "max attempts exhausted")

    def _rollback(self, placed: list[tuple[str, str]]) -> None:
        """Remove every document this attempt stored. Direct object
        removal — works even when the peer's transport is down — and
        guarded against racing placements (never delete a fragment the
        catalog now references)."""
        for peer_name, local_name in placed:
            if self._still_placed(peer_name, local_name):
                continue
            peer = self.federation.peers.get(peer_name)
            if peer is not None:
                peer.remove(local_name)

    def _still_placed(self, peer_name: str, local_name: str) -> bool:
        for spec in self.catalog.collections():
            for shard in spec.shards:
                if shard.local_name == local_name \
                        and peer_name in shard.replicas:
                    return True
        return False

    def _tombstone(self, peer_name: str, local_name: str) -> None:
        with self._lock:
            self.tombstones.append((peer_name, local_name))

    def _give_up(self, plan, reason: str) -> bool:
        with self._lock:
            self._failed += 1
        if self._m_migrations is not None:
            self._m_migrations.labels(plan.op, "failed").inc()
        if self.events is not None:
            self.events.emit(
                "rebalance_failed",
                f"{plan.op} of {plan.collection}#s{plan.shard_index} "
                f"abandoned: {reason}",
                severity="error", op=plan.op,
                collection=plan.collection, shard=plan.shard_index,
                reason=reason)
        return False

    def _note_done(self, op: str, *, nbytes: int, **attrs) -> None:
        with self._lock:
            self._completed[op] = self._completed.get(op, 0) + 1
        if self._m_migrations is not None:
            self._m_migrations.labels(op, "completed").inc()
            if nbytes:
                self._m_bytes.labels(op).inc(nbytes)
        if self.events is not None:
            detail = " ".join(f"{k}={v}" for k, v in attrs.items())
            self.events.emit("rebalance_completed",
                             f"{op} completed: {detail} "
                             f"({nbytes} bytes)",
                             severity="info", op=op, bytes=nbytes,
                             **attrs)

    def _spanned(self, op: str, attrs: dict, work):
        """Run ``work(stats)`` inside a ``migrate`` span — under the
        ambient trace when one exists, else under a private tracer
        folded into the fleet monitor (the repair engine's pattern)."""
        stats = RunStats()
        monitor = getattr(self.federation, "monitor", None)
        if current_span() is None and monitor is not None:
            tracer = Tracer()
            with tracer.start("migrate", op=op, **attrs) as span, \
                    bind_stats_span(stats, span):
                result = work(stats)
                span.set(bytes=result[1])
            monitor.observe_trace(tracer.root)
            return result
        with child_span("migrate", op=op, **attrs) as span, \
                bind_stats_span(stats, span):
            result = work(stats)
            if span is not None:
                span.set(bytes=result[1])
        return result

    def _fetch_text(self, peer_name: str, local_name: str,
                    stats: RunStats) -> str:
        transport = self.federation.transport
        peer = self.federation.peer(peer_name)
        return transport.fetch_document(peer, local_name, stats)[0]

    def _store_verified(self, peer_name: str, local_name: str,
                        text: str, stats: RunStats,
                        placed: list[tuple[str, str]]) -> None:
        """Store and read back over the wire; byte mismatch or a dead
        destination both raise :class:`NetworkError`."""
        self.federation.peer(peer_name).store(local_name, text)
        placed.append((peer_name, local_name))
        echoed = self._fetch_text(peer_name, local_name, stats)
        if echoed != text:
            raise NetworkError(
                f"migration verify failed: {local_name} on "
                f"{peer_name} does not match the source bytes")

    # -- move -----------------------------------------------------------------

    def _move_attempt(self, plan: MovePlan,
                      placed: list[tuple[str, str]]) -> bool:
        try:
            spec = self.catalog.get(plan.collection)
        except ClusterError:
            return False  # collection dropped: stale plan, no-op
        shard = self._find_shard(spec, plan.shard_index)
        if shard is None or plan.source not in shard.replicas \
                or plan.target in shard.replicas:
            return False  # layout changed since planning: no-op
        if not self.scorer.usable(plan.target) \
                or self.catalog.is_draining(plan.target):
            return self._give_up(plan, f"target {plan.target} is not "
                                       f"a usable placement")
        sources = [r for r in shard.replicas if self.scorer.usable(r)]
        if not sources:
            return self._give_up(plan, "no live source replica")
        # Prefer copying from the replica being moved (it is usable or
        # it would not be "moved", it would be repaired), else any.
        copy_from = plan.source if plan.source in sources else sources[0]
        attrs = dict(collection=spec.name, shard=shard.index,
                     source=copy_from, dest=plan.target)

        def work(stats: RunStats) -> tuple[bool, int]:
            text = self._fetch_text(copy_from, shard.local_name, stats)
            self._store_verified(plan.target, shard.local_name, text,
                                 stats, placed)
            return True, len(text.encode())

        _ok, nbytes = self._spanned("move", attrs, work)
        # Cutover against a freshly re-read spec: the copy may have
        # taken long enough for a repair or another migration to land.
        spec = self.catalog.get(plan.collection)
        shard = self._find_shard(spec, plan.shard_index)
        if shard is None or shard.local_name not in (
                name for _p, name in placed):
            self._rollback(placed)
            return False  # shard split/renamed mid-copy: stale, no-op
        if plan.target in shard.replicas:
            return False  # someone else placed it: converged already
        if plan.source not in shard.replicas:
            self._rollback(placed)
            return False
        replicas = tuple(plan.target if r == plan.source else r
                         for r in shard.replicas)
        new_shards = tuple(
            with_replicas(s, replicas) if s.index == plan.shard_index
            else s
            for s in spec.shards)
        self.catalog.replace(dc_replace(spec, shards=new_shards),
                             reason="rebalance", op="move",
                             shard=plan.shard_index, source=plan.source,
                             target=plan.target)
        self._tombstone(plan.source, shard.local_name)
        if self.membership is not None:
            self.membership.watch(plan.target)
        self._note_done("move", collection=plan.collection,
                        shard=plan.shard_index, source=plan.source,
                        target=plan.target, nbytes=nbytes)
        return True

    # -- split ----------------------------------------------------------------

    def _split_attempt(self, plan: SplitPlan,
                       placed: list[tuple[str, str]]) -> bool:
        try:
            spec = self.catalog.get(plan.collection)
        except ClusterError:
            return False
        parent = self._find_shard(spec, plan.shard_index)
        if parent is None:
            return False  # renumbered/split since planning: no-op
        sources = [r for r in parent.replicas if self.scorer.usable(r)]
        if not sources:
            return self._give_up(plan, "no live source replica")
        attrs = dict(collection=spec.name, shard=parent.index,
                     source=sources[0])

        def work(stats: RunStats) -> tuple[tuple, int]:
            text = self._fetch_text(sources[0], parent.local_name,
                                    stats)
            doc = parse_document(
                text, uri=f"xrpc://{spec.name}/{parent.local_name}")
            members = collection_members(doc, spec.container_path,
                                         spec.member)
            if len(members) < 2:
                return (None, text), 0
            at = max(1, min(len(members) - 1, plan.at_member))
            child_names = (f"{parent.local_name}.0",
                           f"{parent.local_name}.1")
            fragments = partition_document(
                doc, spec.container_path, spec.member, 2,
                BoundaryPartitioner(at),
                uri_for_shard=lambda s: f"xrpc://{spec.name}/"
                                        f"{child_names[s]}")
            # Prove the children union byte-exactly back to the parent
            # BEFORE any byte is stored anywhere.
            merged = merge_shard_documents(
                [frag for frag, _count in fragments], uri=doc.uri,
                container_path=spec.container_path)
            if serialize(merged) != text:
                raise NetworkError(
                    f"split verify failed: children of "
                    f"{parent.local_name} do not merge back to the "
                    f"parent bytes")
            child_texts = tuple(serialize(frag)
                                for frag, _count in fragments)
            counts = tuple(count for _frag, count in fragments)
            # Place both children on every usable parent replica and
            # wire-verify each copy; the parent keeps serving
            # throughout (different local names, no conflict).
            total = 0
            for replica in sources:
                for name, ctext in zip(child_names, child_texts):
                    self._store_verified(replica, name, ctext, stats,
                                         placed)
                    total += len(ctext.encode())
            return (child_names, counts, at), total

        result, nbytes = self._spanned("split", attrs, work)
        if result[0] is None:
            return self._give_up(
                plan, f"shard {parent.local_name} has fewer than 2 "
                      f"members; nothing to split")
        child_names, counts, at = result
        # Cutover: re-read, re-find the parent by its (stable) local
        # name, and swap it for its two children in one epoch bump.
        spec = self.catalog.get(plan.collection)
        parent_now = next((s for s in spec.shards
                           if s.local_name == parent.local_name), None)
        if parent_now is None:
            self._rollback(placed)
            return False  # parent gone (raced split): stale, no-op
        replicas = tuple(sources)
        new_shards: list[ShardInfo] = []
        for s in spec.shards:
            if s.local_name == parent.local_name:
                new_shards.append(ShardInfo(
                    index=len(new_shards), local_name=child_names[0],
                    replicas=replicas, members=counts[0]))
                new_shards.append(ShardInfo(
                    index=len(new_shards), local_name=child_names[1],
                    replicas=replicas, members=counts[1]))
            else:
                new_shards.append(dc_replace(s, index=len(new_shards)))
        self.catalog.replace(
            dc_replace(spec, shards=tuple(new_shards)),
            reason="rebalance", op="split", shard=plan.shard_index,
            children=list(child_names))
        for replica in parent_now.replicas:
            self._tombstone(replica, parent.local_name)
        self._note_done("split", collection=plan.collection,
                        shard=plan.shard_index, at_member=at,
                        children=list(child_names), nbytes=nbytes)
        return True

"""Executing migration plans: copy → verify → cutover → retire.

Every way a placement changes peers — re-replicating an
under-replicated shard, moving a replica, splitting a shard, retiring
a redundant copy — runs here as the same staged protocol behind the
catalog's epoch machinery:

1. **Copy** the fragment over the existing ship path
   (``transport.fetch_document`` from a replica the federation's
   :class:`~repro.cluster.membership.PeerView` lets serve, ``Peer.store``
   at the destination) inside the plan's span (``migrate``; ``repair``
   for a re-replication), with the wire charges bound to it.
2. **Verify byte-identity** by reading the copy back *over the wire*
   and comparing against the source text. This proves the bytes landed
   intact and doubles as the liveness check: a destination that died
   mid-copy fails the read-back, not the cutover. A split additionally
   verifies **before anything is stored** that the two child fragments
   merge back byte-exactly into the parent
   (:func:`~repro.cluster.gather.merge_shard_documents` — the same
   reassembly the data-shipping path trusts).
3. **Cut over** with one ``catalog.update`` — one atomic epoch bump
   whose function re-finds the shard by its stable ``local_name`` in
   the spec current *at the cutover*: what landed during the copy is
   built upon, never undone, and an in-flight scatter sees the old
   placement or the new one, never a torn hybrid. Up to and including
   the cutover the shard's live replica count is ≥ what it was when
   the plan started: new copies are placed *before* old ones leave.
4. **Retire** the superseded fragment lazily: the cutover only
   tombstones it; :meth:`MigrationExecutor.collect` removes the bytes
   later, and only after double-checking the catalog no longer places
   that fragment on that peer. An in-flight scatter that snapshotted
   the old epoch can therefore still read the old copy to completion.

Failure discipline: :meth:`~MigrationExecutor.execute` runs a plan
once. Its copy fails over between the shard's serving replicas as the
router does, each tried once (a move's leaving replica first). With
none left, or on any other fault, the plan rolls back every document
it stored (direct object removal — it works even when the
destination's transport is down) and gives up loudly (event + metric,
catalog untouched) for the next reconcile to re-plan. A plan that no
longer matches the live spec — the shard healed, moved or split since
planning or during the copy, or its target no longer serves at the
cutover — is a rolled-back no-op. Each plan reports in its own
vocabulary: a :class:`~repro.cluster.rebalance.ReplicatePlan` as
``repair_started`` / ``repair_completed`` / ``repair_failed`` and the
``repair_*`` metrics, every other plan as ``rebalance_completed`` /
``rebalance_failed`` and the ``rebalance_*`` metrics.
"""

from __future__ import annotations

import threading

from repro.cluster.catalog import ShardInfo
from repro.cluster.gather import merge_shard_documents
from repro.cluster.partitioner import (
    Partitioner, collection_members, partition_document,
)
from repro.cluster.rebalance import (
    MovePlan, ReplicatePlan, RetirePlan, SplitPlan,
)
from repro.errors import (
    ClusterError, PeerUnavailableError, ReproError, indicts,
)
from repro.net.stats import RunStats
from repro.obs.trace import bind_stats_span, child_span
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize

__all__ = ["MigrationExecutor", "BoundaryPartitioner", "PlanAbandoned"]


class PlanAbandoned(Exception):
    """A plan found unexecutable as written — no source that serves
    it, an unusable target, nothing to split, children that do not
    merge back. Not stale: the plan is given up, and the next reconcile
    re-plans."""


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
    protocol described in the module docstring, emitting into the
    federation's event log (when one is attached) and metrics
    registry."""

    def __init__(self, federation):
        self.federation = federation
        self.catalog = federation.catalog
        if self.catalog is None:
            raise ClusterError("migration executor needs a catalog")
        self.view = federation.peer_view
        self._lock = threading.Lock()
        #: Superseded fragments awaiting physical removal:
        #: ``(peer_name, local_name)`` pairs.
        self.tombstones: list[tuple[str, str]] = []
        #: Plans cut over / given up, by op.
        self._completed: dict[str, int] = {}
        self._failed: dict[str, int] = {}
        self._collected = 0
        metrics = federation.metrics
        self._m_migrations = metrics.counter(
            "rebalance_migrations_total",
            "migrations by operation and outcome",
            ("op", "outcome"))
        self._m_bytes = metrics.counter(
            "rebalance_bytes_total",
            "fragment bytes shipped by migrations", ("op",))
        self._m_repaired = metrics.counter(
            "repair_completed_total", "fragments re-replicated",
            ("collection",))
        self._m_repair_failed = metrics.counter(
            "repair_failed_total",
            "re-replications abandoned (no live source, no healthy "
            "target, a destination fault)", ("collection",))
        self._m_repair_bytes = metrics.counter(
            "repair_bytes_total", "fragment bytes shipped by repair",
            ("collection",))

    @property
    def events(self):
        """The event log attached to the federation now (None: none)."""
        return self.federation.events

    # -- public API -----------------------------------------------------------

    def execute(self, plan) -> bool:
        """Run one plan once, to a cutover, a no-op (stale) or a
        give-up, rolling back what it stored unless it cut over. True
        only when a cutover happened."""
        run = {MovePlan: self._place, ReplicatePlan: self._place,
               SplitPlan: self._split, RetirePlan: self._retire}[type(plan)]
        placed: list[tuple[str, str]] = []
        done = reason = None
        try:
            done = run(plan, placed)
        except PlanAbandoned as exc:
            reason = str(exc)
        except ReproError as exc:
            reason = f"{type(exc).__name__}: {exc}"
        finally:
            if done is None:  # stale or abandoned: roll back
                for peer_name, local_name in placed:
                    self._remove_unplaced(peer_name, local_name)
        if reason is not None:
            return self._give_up(plan, reason)
        if done is not None:
            self._note_done(plan, *done)
        return done is not None

    def collect(self) -> int:
        """Physically remove tombstoned fragments whose placement no
        longer references them. Call between queries/steps: an
        in-flight scatter pinned to an old epoch may still be reading
        the old copy, so retirement is never inline with the cutover."""
        with self._lock:
            pending, self.tombstones = self.tombstones, []
        removed = 0
        for peer_name, local_name in pending:
            if self._remove_unplaced(peer_name, local_name):
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
            completed, failed = self._completed, self._failed
            return {"splits": completed.get("split", 0),
                    "moves": completed.get("move", 0),
                    "retires": completed.get("retire", 0),
                    "migrations_failed": sum(failed.values())
                    - failed.get("replicate", 0),
                    "repairs_completed": completed.get("replicate", 0),
                    "repairs_failed": failed.get("replicate", 0),
                    "tombstones": len(self.tombstones),
                    "collected": self._collected}

    # -- shared machinery -----------------------------------------------------

    def _remove_unplaced(self, peer_name: str, local_name: str) -> bool:
        """Physically remove one fragment copy (rollback, retirement)
        — unless the catalog places it there: a racing cutover
        re-placed it, it is not garbage. Direct object removal: it
        works even when the peer's transport is down."""
        if any(peer_name in shard.replicas
               for spec in self.catalog.collections()
               for shard in spec.shards if shard.local_name == local_name):
            return False
        peer = self.federation.peers.get(peer_name)
        return peer is not None and peer.remove(local_name)

    def _tombstone(self, peer_name: str, local_name: str) -> None:
        with self._lock:
            self.tombstones.append((peer_name, local_name))

    def _give_up(self, plan, reason: str) -> bool:
        with self._lock:
            self._failed[plan.op] = self._failed.get(plan.op, 0) + 1
        if plan.family == "repair":
            self._m_repair_failed.labels(plan.collection).inc()
        else:
            self._m_migrations.labels(plan.op, "failed").inc()
        self._emit_failed(plan, f"abandoned: {reason}", "error",
                          reason=reason)
        return False

    def _emit_failed(self, plan, what: str, severity: str, **attrs) -> None:
        if self.events is None:
            return
        repair = plan.family == "repair"
        self.events.emit(
            "repair_failed" if repair else "rebalance_failed",
            f"{'repair' if repair else plan.op} of {plan.collection}"
            f"#s{plan.shard_index} {what}", severity=severity,
            collection=plan.collection, shard=plan.shard_index,
            **(attrs if repair else dict(op=plan.op, **attrs)))

    def _note_done(self, plan, nbytes: int, done: dict) -> None:
        """Count a cutover in its family's series, and report it."""
        with self._lock:
            self._completed[plan.op] = self._completed.get(plan.op, 0) + 1
        attrs = dict(collection=plan.collection, shard=plan.shard_index)
        repair = plan.family == "repair"
        if repair:
            self._m_repaired.labels(plan.collection).inc()
            self._m_repair_bytes.labels(plan.collection).inc(nbytes)
            message = (f"{plan.collection}#s{plan.shard_index} "
                       f"re-replicated onto {plan.target}")
            attrs.update(source=done["source"], dest=plan.target)
        else:
            self._m_migrations.labels(plan.op, "completed").inc()
            if nbytes:
                self._m_bytes.labels(plan.op).inc(nbytes)
            attrs.update(done)
            message = f"{plan.op} completed: " + " ".join(
                f"{k}={v}" for k, v in attrs.items())
            attrs["op"] = plan.op
        if self.events is not None:
            self.events.emit(
                "repair_completed" if repair else "rebalance_completed",
                f"{message} ({nbytes} bytes)", severity="info",
                bytes=nbytes, **attrs)

    def _spanned(self, plan, attrs: dict, work):
        """Run ``work(stats) -> (result, bytes)`` inside the plan's
        span (when a trace is ambient), reporting a repair's start."""
        if plan.family == "repair" and self.events is not None:
            self.events.emit(
                "repair_started",
                f"re-replicating {plan.collection}#s{plan.shard_index} "
                f"{attrs['source']} -> {plan.target}",
                severity="info", collection=plan.collection,
                shard=plan.shard_index, source=attrs["source"],
                dest=plan.target)
        stats = RunStats()
        with child_span(plan.span, op=plan.op, **attrs) as span, \
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

    def _fetch_source(self, plan, sources: list[str], local_name: str,
                      stats: RunStats) -> tuple[str, str]:
        """Fragment ``local_name``'s text and the source it came from,
        each of ``sources`` tried once, in order. A fault that
        :func:`~repro.errors.indicts` the source (down, or lacking the
        fragment) counts against it on the peer view, is reported, and
        moves on; with none left the plan is abandoned."""
        clock = self.federation.transport.clock
        for source in sources:
            started = clock()
            try:
                self.federation.peer(source).fragment(local_name)
                return self._fetch_text(source, local_name, stats), source
            except Exception as fault:
                if not indicts(fault, source):
                    raise
                self.view.record(source, clock() - started, False)
                error = type(fault).__name__
                self._emit_failed(plan, f"from {source} failed: {error}",
                                  "warning", source=source, error=error)
        raise PlanAbandoned(
            f"all source replicas failed: {', '.join(sources)}")

    def _store_verified(self, peer_name: str, local_name: str,
                        text: str, stats: RunStats,
                        placed: list[tuple[str, str]]) -> None:
        """Store and read back over the wire; byte mismatch or a dead
        destination both raise :class:`PeerUnavailableError` naming
        it, and count against it on the peer view, as a failed source
        does. A canonical copy is adopted as its own serialisation, so
        its read-back checks the transport, not the store's round
        trip."""
        clock = self.federation.transport.clock
        started = clock()
        try:
            self.federation.peer(peer_name).store(local_name, text)
            placed.append((peer_name, local_name))
            echoed = self._fetch_text(peer_name, local_name, stats)
            if echoed != text:
                raise PeerUnavailableError(
                    f"migration verify failed: {local_name} on "
                    f"{peer_name} does not match the source bytes",
                    peer=peer_name)
        except Exception as fault:
            if indicts(fault, peer_name):
                self.view.record(peer_name, clock() - started, False)
            raise

    # -- replicate / move -----------------------------------------------------

    def _place(self, plan, placed: list[tuple[str, str]]):
        """Place a verified copy of the shard on ``plan.target`` and
        add it to the placement; a move is that plus dropping
        ``plan.source`` in the same cutover."""
        leaving = plan.source if isinstance(plan, MovePlan) else None
        spec = self.catalog.lookup(plan.collection)
        shard = spec.shard(plan.shard_index) if spec is not None else None

        def stale(now) -> bool:
            return now is None or plan.target in now.replicas or (
                leaving is not None and leaving not in now.replicas)

        if stale(shard):
            return None  # dropped, or the layout changed since planning
        # A move copies from the replica being moved first.
        sources = sorted((r for r in shard.replicas if self.view.serves(r)),
                         key=lambda r: r != leaving)
        if not sources:
            raise PlanAbandoned("no live source replica")
        if plan.target is None:
            raise PlanAbandoned("no healthy target peer")
        if not self.view.accepts(plan.target):
            raise PlanAbandoned(
                f"target {plan.target} is not a usable placement")
        name = shard.local_name

        def work(stats: RunStats) -> tuple[str, int]:
            text, source = self._fetch_source(plan, sources, name, stats)
            self._store_verified(plan.target, name, text, stats, placed)
            return source, len(text.encode())

        copy_from, nbytes = self._spanned(
            plan, dict(collection=spec.name, shard=shard.index,
                       source=sources[0], dest=plan.target), work)

        def cutover(current):
            # The copy may have taken long enough for a repair, another
            # migration or an eviction to land: decide against
            # `current`, and place the target only if it still serves.
            now = current.shard_named(name)
            if stale(now) or not self.view.serves(plan.target):
                return None  # split, moved, placed, or target gone
            if leaving is None:
                return current.placing(now, now.replicas + (plan.target,))
            return current.placing(now, tuple(
                plan.target if r == leaving else r for r in now.replicas))

        attrs = dict(shard=plan.shard_index, target=plan.target)
        if leaving is not None:
            attrs.update(op=plan.op, source=leaving)
        if self.catalog.update(plan.collection, cutover, plan.reason,
                               **attrs) is None:
            return None
        if leaving is not None:
            self._tombstone(leaving, name)
        if self.view.detector is not None:
            self.view.detector.watch(plan.target)
        return nbytes, dict(source=leaving or copy_from,
                            target=plan.target)

    # -- split ----------------------------------------------------------------

    def _split(self, plan: SplitPlan, placed: list[tuple[str, str]]):
        spec = self.catalog.lookup(plan.collection)
        parent = spec.shard(plan.shard_index) if spec is not None else None
        if parent is None:
            return None  # dropped, renumbered or split since planning
        sources = [r for r in parent.replicas if self.view.serves(r)]
        if not sources:
            raise PlanAbandoned("no live source replica")
        child_names = (f"{parent.local_name}.0", f"{parent.local_name}.1")

        def work(stats: RunStats) -> tuple[tuple, int]:
            text, _source = self._fetch_source(
                plan, sources, parent.local_name, stats)
            doc = parse_document(
                text, uri=f"xrpc://{spec.name}/{parent.local_name}")
            members = collection_members(doc, spec.container_path,
                                         spec.member)
            if len(members) < 2:
                raise PlanAbandoned(
                    f"shard {parent.local_name} has fewer than 2 "
                    f"members; nothing to split")
            at = max(1, min(len(members) - 1, plan.at_member))
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
                raise PlanAbandoned(
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
            return (counts, at), total

        (counts, at), nbytes = self._spanned(
            plan, dict(collection=spec.name, shard=parent.index,
                       source=sources[0]), work)
        kept: list[str] = []

        def cutover(current):
            # Swap the parent — re-found by its stable local name —
            # for its two children, renumbering the shards after it.
            # The children go on the copies' peers that still hold the
            # parent and still serve: an eviction mid-copy drops one.
            now = current.shard_named(parent.local_name)
            kept[:] = [] if now is None else [
                r for r in sources
                if r in now.replicas and self.view.serves(r)]
            if not kept:
                return None  # parent gone (raced split), or no holder
            shards: list[ShardInfo] = []
            for s in current.shards:
                if s.local_name != parent.local_name:
                    shards.append(s.replace(index=len(shards)))
                    continue
                for name, count in zip(child_names, counts):
                    shards.append(ShardInfo(
                        index=len(shards), local_name=name,
                        replicas=tuple(kept), members=count))
            return current.replace(shards=tuple(shards))

        before = self.catalog.update(
            plan.collection, cutover, plan.reason, op=plan.op,
            shard=plan.shard_index, children=list(child_names))
        if before is None:
            return None
        for replica in before.shard_named(parent.local_name).replicas:
            self._tombstone(replica, parent.local_name)
        for peer_name, local_name in placed:
            if peer_name not in kept:    # copied, but never placed
                self._remove_unplaced(peer_name, local_name)
        return nbytes, dict(at_member=at, children=list(child_names))

    # -- retire ---------------------------------------------------------------

    def _retire(self, plan: RetirePlan, placed: list[tuple[str, str]]):
        """Drop ``plan.peer`` from the placement unless the replicas
        left that serve would fall short of the replication factor
        (then the plan is stale)."""
        spec = self.catalog.lookup(plan.collection)
        shard = spec.shard(plan.shard_index) if spec is not None else None
        if shard is None:
            return None
        name, peer = shard.local_name, plan.peer

        def drop(current):
            now = current.shard_named(name)
            if now is None or peer not in now.replicas:
                return None
            remaining = tuple(r for r in now.replicas if r != peer)
            if sum(map(self.view.serves, remaining)) \
                    < current.replication_factor:
                return None
            return current.placing(now, remaining)

        if self.catalog.update(plan.collection, drop, plan.reason,
                               op=plan.op, shard=plan.shard_index,
                               peer=peer) is None:
            return None
        self._tombstone(peer, name)
        return 0, dict(peer=peer)

"""The cluster catalog: logical collections, shards, and replicas.

A *collection* is one logical XML document (e.g. the XMark people
document) partitioned into *shards*, each of which is a self-contained
fragment document stored on ``replication_factor`` peers. Queries
address the collection through a virtual host name::

    doc("xrpc://people-c/people.xml")

and never name shards or replicas; the router resolves the virtual
host through this catalog at execution time.

Membership is **epoch-versioned**: every mutation (registering or
dropping a collection, a peer marked down or up) bumps the catalog
epoch. The epoch is woven into the runtime's cache keys so responses
computed against an older shard layout can never be served after a
repartition.

A registered layout changes in exactly one way:
:meth:`ClusterCatalog.update` hands the *current* spec to a function
under the catalog lock and installs what it returns, so a cutover
builds on whatever landed since its plan was made and never undoes it.
The function must be pure — every reader waits on that lock, and a
call back into the catalog from inside it would deadlock.

The catalog holds layouts and the epoch only. Whether a placed
replica may serve is the :class:`~repro.cluster.membership.PeerView`'s
answer; a down mark it sets or lifts bumps the epoch here
(:meth:`ClusterCatalog.bump`) without touching placements. The router
additionally fails over on live transport faults, so an unmarked dead
replica costs one failed attempt, not a failed query.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from repro.errors import NetworkError
from repro.xquery.prepared import PreparedTable


class ClusterError(NetworkError):
    """Misconfigured or unsatisfiable cluster operation."""


@dataclass(frozen=True)
class ShardInfo:
    """One shard of a collection: a fragment document replicated on
    ``replicas`` (peer names; order is the preference order used to
    break replica-selection ties)."""

    index: int
    local_name: str            # document name under which replicas store it
    replicas: tuple[str, ...]
    members: int = 0           # member elements held by this shard
    low_key: str | None = None   # range partitioning bounds (informational)
    high_key: str | None = None

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ClusterError(
                f"shard {self.index} has no replica placement")


@dataclass(frozen=True)
class CollectionSpec:
    """One sharded collection, addressable as ``xrpc://{name}/{document}``.

    ``container_path`` names the element spine from the root to the
    member container (e.g. ``("site", "people")``); ``member`` is the
    member element name (e.g. ``"person"``). Shards partition the
    member elements; shard 0 additionally carries all non-member
    content, so the union of the shards is exactly the original
    document.
    """

    name: str                   # virtual host name
    document: str               # logical local document name
    container_path: tuple[str, ...]
    member: str
    shards: tuple[ShardInfo, ...]
    #: The replica count the reconciler restores every shard to
    #: after evictions.
    replication_factor: int
    partitioning: str = "range"   # "range" | "hash"

    def __post_init__(self) -> None:
        if not self.shards:
            raise ClusterError(f"collection {self.name!r} has no shards")
        if not self.container_path:
            raise ClusterError(
                f"collection {self.name!r} has an empty container path")

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard(self, index: int) -> ShardInfo | None:
        """The shard numbered ``index`` (a split renumbers), or None."""
        return next((s for s in self.shards if s.index == index), None)

    def shard_named(self, local_name: str) -> ShardInfo | None:
        """The shard stored as ``local_name`` (stable across the
        renumbering), or None."""
        return next((s for s in self.shards
                     if s.local_name == local_name), None)

    def placing(self, shard: ShardInfo,
                replicas: tuple[str, ...]) -> "CollectionSpec":
        """A copy of this layout with ``shard`` placed on ``replicas``."""
        return replace(self, shards=tuple(
            with_replicas(s, replicas)
            if s.local_name == shard.local_name else s
            for s in self.shards))

    @property
    def replica_peers(self) -> tuple[str, ...]:
        """Every peer holding at least one replica, sorted."""
        peers = {peer for shard in self.shards for peer in shard.replicas}
        return tuple(sorted(peers))


class ClusterCatalog:
    """Thread-safe registry of sharded collections."""

    PARTIAL_POLICIES = ("error", "allow")

    def __init__(self, partial: str = "error"):
        self._lock = threading.Lock()
        self._epoch = 0
        self._collections: dict[str, CollectionSpec] = {}
        self._reasons: dict[str, str] = {}   # collection -> last reason
        #: A :class:`~repro.obs.events.EventLog` installed by a fleet
        #: monitor; every epoch bump emits into it when set.
        self.events = None
        #: Graceful degradation when a shard has zero live replicas:
        #: ``"error"`` fails the query (exact semantics, the default);
        #: ``"allow"`` lets scatter return a *flagged* partial answer
        #: (``RunStats.partial_shards`` counts the holes).
        self.partial_policy = self._check_partial(partial)
        #: The router's :class:`~repro.runtime.transport.RetryPolicy`
        #: for transient wire faults (None ⇒ the router's default).
        self.retry_policy = None
        #: The router's prepared scatters, one per (function body,
        #: collection layout) — see ``router._PreparedScatter``.
        self.prepared = PreparedTable()

    @classmethod
    def _check_partial(cls, policy: str) -> str:
        if policy not in cls.PARTIAL_POLICIES:
            raise ClusterError(
                f"partial policy {policy!r} not in {cls.PARTIAL_POLICIES}")
        return policy

    def set_partial_policy(self, policy: str) -> None:
        """Switch the zero-live-replica degradation policy."""
        self.partial_policy = self._check_partial(policy)

    def _emit_epoch(self, epoch: int, reason: str, **attrs) -> None:
        """Emit an epoch-bump event (called with the lock released —
        event sinks may take their own locks)."""
        if self.events is not None:
            self.events.emit("epoch_bump",
                             f"catalog epoch -> {epoch} ({reason})",
                             severity="info", epoch=epoch,
                             reason=reason, **attrs)

    # -- membership ---------------------------------------------------------

    def epoch(self) -> int:
        """The membership epoch: bumped by every catalog mutation."""
        with self._lock:
            return self._epoch

    def register(self, spec: CollectionSpec) -> None:
        with self._lock:
            if spec.name in self._collections:
                raise ClusterError(
                    f"collection {spec.name!r} already registered")
            self._collections[spec.name] = spec
            self._reasons[spec.name] = "register"
            self._epoch += 1
            epoch = self._epoch
        self._emit_epoch(epoch, "register", collection=spec.name)

    def update(self, name: str, fn, reason: str = "replace",
               **attrs) -> CollectionSpec | None:
        """Change collection ``name``'s layout to ``fn(current spec)``,
        decided under the catalog lock (``fn`` must be pure: no I/O, no
        catalog call), and return the spec it replaced. ``fn``
        returning None changes nothing — no epoch bump, no event — and
        returns None. ``reason``/``attrs`` annotate the epoch-bump
        event so operators can tell an eviction from a repair."""
        with self._lock:
            if name not in self._collections:
                raise ClusterError(f"unknown collection {name!r}")
            before = self._collections[name]
            spec = fn(before)
            if spec is None:
                return None
            self._collections[name] = spec
            self._reasons[name] = reason
            self._epoch += 1
            epoch = self._epoch
        self._emit_epoch(epoch, reason, collection=name, **attrs)
        return before

    def replace(self, spec: CollectionSpec, reason: str = "replace",
                **attrs) -> None:
        """Swap in a whole new layout, whatever the current one is."""
        self.update(spec.name, lambda _current: spec, reason, **attrs)

    def get(self, name: str) -> CollectionSpec:
        with self._lock:
            try:
                return self._collections[name]
            except KeyError:
                raise ClusterError(f"unknown collection {name!r}") from None

    def lookup(self, host: str) -> CollectionSpec | None:
        """The collection registered under virtual host ``host``, or
        None when ``host`` is an ordinary peer name."""
        with self._lock:
            return self._collections.get(host)

    def collections(self) -> list[CollectionSpec]:
        with self._lock:
            return list(self._collections.values())

    def bump(self, reason: str, **attrs) -> None:
        """Bump the epoch for a change outside the layouts (a peer's
        down mark set or lifted): cached responses keyed by the old
        epoch stop being served."""
        with self._lock:
            self._epoch += 1
            epoch = self._epoch
        self._emit_epoch(epoch, reason, **attrs)

    # -- introspection ------------------------------------------------------

    def describe(self) -> dict[str, object]:
        """A JSON-able snapshot for examples, benchmarks, and the
        operator console (through :meth:`PeerView.describe`, which adds
        liveness): per-shard placements, plus each collection's
        replication target and the reason of its last epoch-bumping
        mutation."""
        with self._lock:
            return {
                "epoch": self._epoch,
                "collections": {
                    spec.name: {
                        "document": spec.document,
                        "partitioning": spec.partitioning,
                        "replication_factor": spec.replication_factor,
                        "last_reason": self._reasons.get(spec.name,
                                                         "register"),
                        "shards": [
                            {"index": s.index,
                             "local_name": s.local_name,
                             "replicas": list(s.replicas),
                             "members": s.members}
                            for s in spec.shards
                        ],
                    }
                    for spec in self._collections.values()
                },
            }


def with_replicas(shard: ShardInfo, replicas: tuple[str, ...]) -> ShardInfo:
    """A copy of ``shard`` with a new replica placement."""
    return replace(shard, replicas=replicas)

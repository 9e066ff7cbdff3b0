"""The repair engine: finding under-replicated shards and queueing
their re-replication.

Eviction (``cluster/membership.py``) removes a dead peer from shard
placements; what remains is a cluster serving some shards from fewer
replicas than :attr:`CollectionSpec.replication_factor` promises. This
module decides *what* to heal and *when*. The bytes are moved by the
federation's one :class:`~repro.cluster.migrate.MigrationExecutor`,
for which a repair is one more migration (a
:class:`~repro.cluster.rebalance.ReplicatePlan`: copy, wire read-back
verify, cutover with reason ``"repair"``, rollback when the shard was
split or moved mid-copy).

1. :meth:`RepairEngine.scan` counts each shard's replicas that the
   federation's :class:`~repro.cluster.membership.PeerView` lets serve
   (not marked down, not held dead or evicted by the detector) and
   enqueues one :class:`RepairTask` per under-replicated shard into a
   **bounded** (:data:`MAX_QUEUE`), de-duplicating queue (overflow is
   dropped loudly: ``repair_queue_full`` event, ``repair_failed``
   metric).
2. :meth:`process` drains the tasks queued at call time, in order.
   Each re-checks the live spec first (healed by an earlier task, a
   revived replica or a raced eviction ⇒ no-op), picks the coolest
   target the executor's scorer ranks, and gives the executor **one**
   attempt.
3. **Retry is the queue's**: a wire fault mid-copy abandons the
   attempt; the task is re-enqueued up to :data:`MAX_ATTEMPTS` and
   waits for the next ``process()``, which re-selects source *and*
   target against the then-current peer view.

Events: ``repair_started`` / ``repair_completed`` / ``repair_failed``;
metrics: the ``repair_*`` series; each copy runs in a ``repair`` span.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.cluster.catalog import ClusterError
from repro.cluster.membership import EVICTED
from repro.cluster.migrate import MigrationExecutor, PlanAbandoned
from repro.cluster.rebalance import ReplicatePlan
from repro.errors import NetworkError

__all__ = ["RepairTask", "RepairEngine"]

#: The queue's bound: a task enqueued beyond it is dropped loudly.
MAX_QUEUE = 64
#: Attempts per task before the queue gives it up.
MAX_ATTEMPTS = 3


@dataclass
class RepairTask:
    """One under-replicated shard awaiting re-replication."""

    collection: str
    shard_index: int
    attempts: int = 0

    @property
    def key(self) -> tuple[str, int]:
        return (self.collection, self.shard_index)


class RepairEngine:
    """Restores every shard to its collection's target replication.

    Wire with :meth:`attach`, which also subscribes to the federation's
    failure detector when one is attached: every eviction triggers a
    scan, and (with ``auto_repair``, the default) immediate processing
    — detect, evict, re-replicate, serve, without an operator in the
    loop.
    """

    def __init__(self, *, auto_repair: bool = True):
        self.federation = self.catalog = self.events = None
        self.auto_repair = auto_repair
        #: Moves the bytes and owns the scorer: the federation's one.
        self.executor: MigrationExecutor | None = None
        self._lock = threading.Lock()
        self._queue: deque[RepairTask] = deque()
        self._queued: set[tuple[str, int]] = set()
        self._completed = 0
        self._failed = 0

    def _init_metrics(self, metrics) -> None:
        self._m_enqueued = metrics.counter(
            "repair_enqueued_total", "repair tasks enqueued",
            ("collection",))
        self._m_completed = metrics.counter(
            "repair_completed_total", "fragments re-replicated",
            ("collection",))
        self._m_failed = metrics.counter(
            "repair_failed_total",
            "repair attempts abandoned (source died, no candidates, "
            "queue overflow)", ("collection",))
        self._m_bytes = metrics.counter(
            "repair_bytes_total", "fragment bytes shipped by repair",
            ("collection",))
        self._m_depth = metrics.gauge(
            "repair_queue_depth", "repair tasks currently queued")

    # -- wiring ---------------------------------------------------------------

    def attach(self, federation) -> "RepairEngine":
        """Install on ``federation``: adopt its catalog / monitor event
        log / metrics registry and its migration executor, expose as
        ``federation.repair``, and subscribe to its detector's
        evictions."""
        self.federation = federation
        self.catalog = federation.catalog
        monitor = federation.monitor
        self.events = monitor.events if monitor is not None else None
        self._init_metrics(federation.metrics)
        federation.repair = self
        self.executor = MigrationExecutor.shared(federation)
        detector = federation.peer_view.detector
        if detector is not None:
            detector.subscribe(self._on_membership)
        return self

    def _on_membership(self, peer: str, old: str, new_state: str) -> None:
        if new_state != EVICTED:
            return
        self.scan()
        if self.auto_repair:
            self.process()

    # -- queue ----------------------------------------------------------------

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"pending": len(self._queue),
                    "completed": self._completed,
                    "failed": self._failed}

    def scan(self) -> int:
        """Enqueue one task per under-replicated shard; returns how
        many were enqueued (already-queued shards are not duplicated)."""
        if self.catalog is None:
            raise ClusterError("repair engine has no catalog")
        enqueued = 0
        serves = self.executor.view.serves
        for spec in self.catalog.collections():
            target = spec.replication_factor
            for shard in spec.shards:
                usable = [r for r in shard.replicas if serves(r)]
                if len(usable) >= target:
                    continue
                if self._enqueue(RepairTask(spec.name, shard.index)):
                    enqueued += 1
        return enqueued

    def _enqueue(self, task: RepairTask) -> bool:
        with self._lock:
            if task.key in self._queued:
                return False
            overflow = len(self._queue) >= MAX_QUEUE
            if overflow:
                self._failed += 1
            else:
                self._queue.append(task)
                self._queued.add(task.key)
            depth = len(self._queue)
        if overflow:
            self._m_failed.labels(task.collection).inc()
            if self.events is not None:
                self.events.emit(
                    "repair_queue_full",
                    f"repair queue full ({MAX_QUEUE}); dropping "
                    f"{task.collection}#s{task.shard_index}",
                    severity="error", collection=task.collection,
                    shard=task.shard_index)
            return False
        self._m_enqueued.labels(task.collection).inc()
        self._m_depth.set(depth)
        return True

    def _pop(self) -> RepairTask | None:
        with self._lock:
            if not self._queue:
                return None
            task = self._queue.popleft()
            self._queued.discard(task.key)
            depth = len(self._queue)
        self._m_depth.set(depth)
        return task

    # -- processing -----------------------------------------------------------

    def process(self, max_tasks: int | None = None) -> int:
        """Drain the tasks queued *at call time*, in order; returns how
        many completed a copy. A task that fails and re-enqueues waits
        for the next call — one ``process()`` never chases its own
        retries."""
        budget = self.pending()
        if max_tasks is not None:
            budget = min(budget, max_tasks)
        done = 0
        for _ in range(budget):
            task = self._pop()
            if task is None:
                break
            if self._repair_one(task):
                done += 1
        return done

    def run_until_converged(self, max_rounds: int = 8) -> bool:
        """Scan+process until no shard is under-replicated (or nothing
        improves for a round). True when fully replicated."""
        for _ in range(max_rounds):
            if self.scan() == 0 and self.pending() == 0:
                return True
            if self.process() == 0:
                break
        return self.scan() == 0 and self.pending() == 0

    # -- one repair -----------------------------------------------------------

    def _repair_one(self, task: RepairTask) -> bool:
        spec = self.catalog.lookup(task.collection)
        shard = spec.shard(task.shard_index) if spec is not None else None
        if shard is None:
            return False  # dropped or renumbered since the scan
        executor = self.executor
        usable = [r for r in shard.replicas if executor.view.serves(r)]
        if len(usable) >= spec.replication_factor:
            return False  # healed since the scan (revival, earlier task)
        if not usable:
            return self._give_up(task, "no live source replica")
        # Coolest first; never a draining peer or a current holder.
        targets = executor.scorer.rank(exclude=set(shard.replicas))
        if not targets:
            return self._give_up(task, "no healthy target peer")
        source, target = usable[0], targets[0]
        if self.events is not None:
            self.events.emit(
                "repair_started",
                f"re-replicating {task.collection}#s{task.shard_index} "
                f"{source} -> {target} (attempt {task.attempts + 1})",
                severity="info", collection=task.collection,
                shard=task.shard_index, source=source, dest=target)
        try:
            done = executor.attempt(ReplicatePlan(
                task.collection, task.shard_index, target))
        except PlanAbandoned as exc:
            return self._give_up(task, str(exc))
        except NetworkError as exc:
            # A replica died (or faulted) mid-copy: the executor rolled
            # the attempt back; re-resolve source/target on the retry.
            task.attempts += 1
            self._emit_failed(
                task, f"from {source} aborted: {type(exc).__name__} "
                      f"(attempt {task.attempts}/{MAX_ATTEMPTS})",
                "warning", source=source, error=type(exc).__name__)
            if task.attempts < MAX_ATTEMPTS:
                self._enqueue(task)
            else:
                self._give_up(task, "max attempts exhausted")
            return False
        if done is None:
            return False  # split or moved mid-copy: rolled back, rescan
        nbytes, source = done[0], done[1]["source"]
        with self._lock:
            self._completed += 1
        self._m_completed.labels(task.collection).inc()
        self._m_bytes.labels(task.collection).inc(nbytes)
        if self.events is not None:
            self.events.emit(
                "repair_completed",
                f"{task.collection}#s{task.shard_index} re-replicated "
                f"onto {target} ({nbytes} bytes)",
                severity="info", collection=task.collection,
                shard=task.shard_index, source=source, dest=target,
                bytes=nbytes)
        return True

    def _give_up(self, task: RepairTask, reason: str) -> bool:
        with self._lock:
            self._failed += 1
        self._m_failed.labels(task.collection).inc()
        self._emit_failed(task, f"abandoned: {reason}", "error",
                          reason=reason)
        return False

    def _emit_failed(self, task: RepairTask, what: str, severity: str,
                     **attrs) -> None:
        if self.events is not None:
            self.events.emit(
                "repair_failed",
                f"repair of {task.collection}#s{task.shard_index} {what}",
                severity=severity, collection=task.collection,
                shard=task.shard_index, **attrs)

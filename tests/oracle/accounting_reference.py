"""The cross-query series as a plain fold over finished runs — the
reference the federation's registry is checked against.

A query is counted once, in its :class:`~repro.net.stats.RunStats`;
the ``query_*`` and ``scatter_*`` series of the federation's registry
are supposed to be nothing but a fold of those records, one run at a
time, failed runs included. :func:`reference_series` recomputes that
fold from the list of runs (``(stats, ok)``; ``stats`` is None for a
run that failed before it was planned) in the registry's
``snapshot()`` shape, so a second writer, a dropped run or a lost
failure shows up as a difference.
"""

from __future__ import annotations

from collections import Counter

#: Every series the fold owns. ``query_latency_seconds`` is compared
#: by its count (the seconds are wall time, not in the record).
SERIES = (
    "query_completed_total", "query_failed_total",
    "query_latency_seconds", "query_transferred_bytes_total",
    "query_simulated_seconds_total", "query_plans_total",
    "scatter_calls_total", "scatter_shards_skipped_total",
    "scatter_failovers_total", "scatter_shard_serves_total",
    "scatter_shard_seconds_total", "scatter_shard_bytes_total",
)

#: ``per_shard`` entry field → the per-collection series it feeds.
_PER_COLLECTION = {
    "skipped": "scatter_shards_skipped_total",
    "failovers": "scatter_failovers_total",
}


def reference_series(runs: list[tuple[object, bool]]) -> dict:
    """``snapshot()``-shaped values of :data:`SERIES` after ``runs``."""
    completed = [stats for stats, ok in runs if ok]
    plans = Counter(stats.plan.strategy for stats in completed)
    labeled: dict[str, Counter] = {name: Counter() for name in SERIES}
    for stats, _ok in runs:
        if stats is None:
            continue
        labeled["scatter_calls_total"].update(stats.scatters)
        for key, entry in stats.per_shard.items():
            collection = key.rsplit("#s", 1)[0]
            shard = f"{collection},{entry['shard']}"
            for field, name in _PER_COLLECTION.items():
                labeled[name][collection] += entry[field]
            labeled["scatter_shard_serves_total"][shard] += (
                entry["calls"] - entry["skipped"] - entry["failed"])
            labeled["scatter_shard_seconds_total"][shard] += entry["sim_s"]
            labeled["scatter_shard_bytes_total"][shard] += entry["bytes"]
    out: dict[str, object] = {
        "query_completed_total": len(completed),
        "query_failed_total": len(runs) - len(completed),
        "query_latency_seconds": len(completed),
        "query_transferred_bytes_total": sum(
            stats.total_transferred_bytes for stats in completed),
        "query_simulated_seconds_total": sum(
            stats.times.total for stats in completed),
        "query_plans_total": dict(plans),
    }
    for name in SERIES:
        if name not in out:
            out[name] = {label: value
                         for label, value in labeled[name].items()
                         if value > 0}
    return out


def registry_series(registry) -> dict:
    """The same series as the registry holds them (absent → empty)."""
    snapshot = registry.snapshot()
    out: dict[str, object] = {}
    for name in SERIES:
        value = snapshot.get(name)
        if name == "query_latency_seconds":
            value = value["count"] if value is not None else 0
        elif value is None:
            value = 0 if name.startswith("query_") \
                and name != "query_plans_total" else {}
        out[name] = value
    return out

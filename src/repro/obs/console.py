"""The fleet console: a snapshot text rendering of the continuous view.

:func:`render_fleet` turns a :class:`~repro.obs.fleet.FleetMonitor`
into the operator's one-screen answer to "is the fleet healthy right
now": windowed query percentiles, per-peer health scores and states,
active SLO alerts, and the newest events. The output is deterministic
given the monitor's state (peers sorted by name, events by sequence),
so examples and CI artifacts diff cleanly.

The renderer duck-types the monitor (it only reads the public
surfaces), keeping this module import-free of the system layer::

    == fleet @ 12.4s up | 240 queries/30.0s | 8.0 qps | errors 0.0% ==
    latency     : p50 1.21 ms | p95 3.40 ms | p99 5.62 ms
    peers:
      peer    state     score  reqs  err%    mean      p95
      node1   OK        1.00     40   0.0   1.20 ms   2.00 ms
      node2   DEGRADED  0.31     38   0.0   9.70 ms  12.00 ms
    alerts:
      FIRING latency-p99: burn 14.2x long / 20.1x short
    events (last 5 of 37):
      #32 [warning] health_demoted  peer node2: score 0.31 ...
"""

from __future__ import annotations

__all__ = ["render_fleet"]


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f} ms"


def render_fleet(monitor, window_s: float | None = None,
                 recent_events: int = 8) -> str:
    """One text screen of fleet state from a
    :class:`~repro.obs.fleet.FleetMonitor` (or anything exposing the
    same surfaces). ``window_s`` restricts the windowed numbers to the
    most recent seconds (default: the monitor's whole ring)."""
    lines: list[str] = []

    queries = monitor.latency.snapshot(window_s)
    covered = monitor.latency.covered_s(window_s)
    error_rate = monitor.error_rate(window_s)
    lines.append(
        f"== fleet @ {monitor.uptime_s():.1f}s up | "
        f"{queries['count']} queries/{covered:.1f}s | "
        f"{queries['rate']:.1f} qps | errors {error_rate:.1%} ==")
    lines.append(
        f"latency     : p50 {_ms(queries['p50'])} | "
        f"p95 {_ms(queries['p95'])} | p99 {_ms(queries['p99'])}")

    peers = sorted(monitor.peer_health(), key=lambda p: p["peer"])
    if peers:
        lines.append("peers:")
        width = max(len(p["peer"]) for p in peers)
        width = max(width, len("peer"))
        lines.append(f"  {'peer':<{width}}  state     score  reqs"
                     f"   err%      mean       p95")
        for peer in peers:
            state = "OK" if peer["healthy"] else "DEGRADED"
            lines.append(
                f"  {peer['peer']:<{width}}  {state:<8}  "
                f"{peer['score']:.2f}   {peer['samples']:>4}  "
                f"{peer['error_rate'] * 100:>5.1f}  "
                f"{_ms(peer['mean_latency_s']):>9}  "
                f"{_ms(peer['p95_latency_s']):>9}")

    view = getattr(monitor.federation, "peer_view", None)
    if view is not None and view.catalog is not None:
        lines.extend(_topology_lines(view.describe()))

    states = monitor.slo.states()
    if states:
        lines.append("alerts:")
        for state in states:
            status = "FIRING" if state.firing else "ok"
            lines.append(
                f"  {status:<6} {state.slo.name}: burn "
                f"{state.last_burn_long:.1f}x long / "
                f"{state.last_burn_short:.1f}x short "
                f"(fired {state.fired_total}x)")

    total_events = sum(monitor.events.counts().values())
    newest = monitor.events.recent(recent_events)
    if newest:
        lines.append(f"events (last {len(newest)} of {total_events}):")
        for event in newest:
            lines.append(f"  #{event.seq} [{event.severity}] "
                         f"{event.kind}  {event.message}")

    return "\n".join(lines)


def _topology_lines(snap: dict) -> list[str]:
    """The shard map of :meth:`PeerView.describe`, one line per shard:
    placements, live replica counts against the collection target, and
    the reason of the last epoch bump — the operator's view of a
    migration as it cuts over."""
    lines = [f"topology    : epoch {snap['epoch']}"
             + (f" | down {','.join(snap['down'])}" if snap["down"]
                else "")
             + (f" | draining {','.join(snap['draining'])}"
                if snap["draining"] else "")]
    for name, coll in sorted(snap["collections"].items()):
        target = coll["replication_factor"]
        lines.append(
            f"  {name} [{coll['partitioning']}] rf={target} "
            f"last={coll.get('last_reason', '?')}")
        for shard in coll["shards"]:
            live = len(shard["live"])
            flag = "" if live >= target else "  UNDER-REPLICATED"
            lines.append(
                f"    s{shard['index']} {shard['local_name']} "
                f"({shard['members']} members) -> "
                f"{','.join(shard['replicas'])} "
                f"live {live}/{target}{flag}")
    return lines

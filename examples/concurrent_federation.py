"""Concurrent federation: 8 clients sharing one engine.

Run:  PYTHONPATH=src python examples/concurrent_federation.py

Eight tenants fire benchmark-query variants at the same two XMark data
peers through a :class:`FederationEngine`: a thread-pool scheduler with
admission control and a shared projection-aware result cache, over a
wire whose delay policy takes real wall-clock time.
"""

import os

from repro import FederationEngine, Transport
from repro.workloads import build_federation, multi_tenant_jobs

CLIENTS = 8
ROUNDS = 3
SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.005"))


def main() -> None:
    federation = build_federation(scale=SCALE)
    federation.transport = Transport(federation.cost_model,
                                     per_peer_concurrency=4,
                                     metrics=federation.metrics,
                                     time_scale=0.05,
                                     extra_latency_s=0.002)
    jobs = multi_tenant_jobs(clients=CLIENTS, rounds=ROUNDS)
    print(f"{CLIENTS} clients x {ROUNDS} rounds "
          f"= {len(jobs)} federated queries\n")

    with FederationEngine(federation, max_workers=CLIENTS) as engine:
        futures = [engine.submit(job.query, job.at, job.strategy)
                   for job in jobs]
        results = [future.result() for future in futures]

        sizes = [len(result.items) for result in results]
        print(f"result sizes: {min(sizes)}-{max(sizes)} items "
              f"across {len(results)} queries")
        # Every run is counted once, in the federation's registry.
        totals = federation.metrics.snapshot()
        latency = totals["query_latency_seconds"]
        print("\n--- fleet metrics ---")
        print(f"queries     : {totals['query_completed_total']} completed, "
              f"{totals['query_failed_total']} failed")
        print(f"latency     : p50 {latency['p50'] * 1000:.2f} ms | "
              f"p95 {latency['p95'] * 1000:.2f} ms | "
              f"p99 {latency['p99'] * 1000:.2f} ms")
        print(f"transferred : {totals['query_transferred_bytes_total']} "
              f"bytes ({totals['query_simulated_seconds_total'] * 1000:.2f}"
              " ms simulated)")

        cache = engine.cache.snapshot()
        print("\n--- result cache ---")
        print(f"entries     : {cache['responses']} responses")
        print(f"hit rate    : {cache['hit_rate'] * 100:.0f}% "
              f"({cache['hits']} hits / {cache['misses']} misses)")
        print(f"saved       : {cache['saved_bytes']} bytes of wire traffic")

        print("\n--- wire bytes per peer ---")
        for peer, wire in federation.transport.wire_summary().items():
            print(f"{peer:>6}: {wire['total_bytes']} bytes "
                  f"in {wire['messages']} messages")


if __name__ == "__main__":
    main()

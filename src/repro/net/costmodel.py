"""The calibrated cost model converting counters into simulated time.

Constants are calibrated to the paper's platform (Section VII): 1 Gb/s
Ethernet between 2 GHz machines, where document shredding dominates
data shipping (">99% of total execution time" for the pure
data-shipping query) and per-message overhead is sub-millisecond. Only
*relative* behaviour matters for reproducing Figures 7-9; the defaults
keep the paper's orderings:

* shredding a byte costs more than serialising one (parsing plus index
  construction vs. a formatting pass);
* the network moves bytes at 1 Gb/s with a fixed per-message latency;
* execution time scales with evaluator ticks and nodes visited.

Every constant is a rate with explicit units (seconds, or seconds per
byte/tick/node-visit); derive a variant with ``CostModel._replace``
(a ``NamedTuple``'s: an unknown field name raises).
"""

from __future__ import annotations

from typing import NamedTuple


class CostModel(NamedTuple):
    """Simulated costs; all times in seconds."""

    #: Per-message fixed cost in **seconds** (TCP connection reuse plus
    #: SOAP envelope handling; the paper's LAN sees ~0.3 ms).
    latency_s: float = 0.3e-3
    #: Wire speed in **bytes per second**: 1 Gb/s = 125 MB/s.
    bandwidth_bytes_per_s: float = 125e6
    #: **Seconds per byte** to shred a received document into the XML
    #: store (parsing plus pre/size/level index construction).
    shred_s_per_byte: float = 60e-9
    #: **Seconds per byte** to serialise XML (documents or messages) to
    #: text (a formatting pass, cheaper than shredding).
    serialize_s_per_byte: float = 15e-9
    #: **Seconds per byte** to parse + shred message payloads on
    #: receipt (between serialisation and full document shredding:
    #: fragments skip part of the index work).
    deserialize_s_per_byte: float = 40e-9
    #: **Seconds per evaluator tick** (one expression-evaluation step).
    tick_s: float = 0.4e-6
    #: **Seconds per node visit** (one axis candidate inspected).
    node_visit_s: float = 0.1e-6

    def network_time(self, message_bytes: int) -> float:
        return self.latency_s + message_bytes / self.bandwidth_bytes_per_s

    def shred_time(self, document_bytes: int) -> float:
        return document_bytes * self.shred_s_per_byte

    def serialize_time(self, message_bytes: int) -> float:
        return message_bytes * self.serialize_s_per_byte

    def deserialize_time(self, message_bytes: int) -> float:
        return message_bytes * self.deserialize_s_per_byte

    def exec_time(self, ticks: int, nodes_visited: int) -> float:
        return ticks * self.tick_s + nodes_visited * self.node_visit_s

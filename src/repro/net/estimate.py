"""Cost-vector arithmetic: the estimation side of the cost model.

A :class:`CostVector` is the *predicted* counterpart of
:class:`~repro.net.stats.RunStats`: raw byte/message/exec quantities a
planner expects an execution to incur, before any of it happens. It is
priced into a :class:`~repro.net.stats.TimeBreakdown` with the same
:class:`~repro.net.costmodel.CostModel` arithmetic the transport uses
to charge actual runs, so estimates and observations are directly
comparable — the planner's feedback loop is a division of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.costmodel import CostModel
from repro.net.stats import TimeBreakdown


@dataclass
class CostVector:
    """Predicted raw quantities for one (partial) execution.

    Byte fields mirror how the transport charges a run: message bytes
    are serialised once and deserialised once per direction; shipped
    documents are serialised at the owner and shredded at the
    requester; execution seconds are carried directly (the estimator
    already multiplied element counts by per-element rates).
    """

    document_bytes: float = 0.0   # whole documents on the wire
    message_bytes: float = 0.0    # request + response message text
    messages: float = 0.0         # individual message transmissions
    local_exec_s: float = 0.0
    remote_exec_s: float = 0.0
    #: Extra queueing delay in seconds (replica in-flight pressure).
    queue_s: float = 0.0

    def add(self, other: "CostVector") -> "CostVector":
        """Accumulate ``other`` into this vector (returns self)."""
        self.document_bytes += other.document_bytes
        self.message_bytes += other.message_bytes
        self.messages += other.messages
        self.local_exec_s += other.local_exec_s
        self.remote_exec_s += other.remote_exec_s
        self.queue_s += other.queue_s
        return self

    @classmethod
    def total_of(cls, vectors) -> "CostVector":
        """A new vector: ``vectors`` added in order."""
        total = cls()
        for vector in vectors:
            total.add(vector)
        return total

    @property
    def wire_bytes(self) -> float:
        """Figure 7's metric, predicted: documents + messages."""
        return self.document_bytes + self.message_bytes

    def time(self, model: CostModel) -> TimeBreakdown:
        """Price the vector with ``model`` — the same arithmetic
        :class:`~repro.runtime.transport.Transport` applies when
        charging real exchanges and document fetches."""
        times = TimeBreakdown()
        times.network = (self.messages * model.latency_s
                         + self.wire_bytes / model.bandwidth_bytes_per_s
                         + self.queue_s)
        times.serialize = (
            self.message_bytes * (model.serialize_s_per_byte
                                  + model.deserialize_s_per_byte)
            + self.document_bytes * model.serialize_s_per_byte)
        times.shred = self.document_bytes * model.shred_s_per_byte
        times.local_exec = self.local_exec_s
        times.remote_exec = self.remote_exec_s
        return times

    def total_s(self, model: CostModel) -> float:
        """Predicted simulated seconds, all components."""
        return self.time(model).total

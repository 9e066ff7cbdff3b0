"""Deterministic network and cost simulation.

The paper's testbed (three Athlon64 machines on 1 Gb/s Ethernet) is
replaced by byte-accurate message accounting plus a calibrated cost
model, giving the five-way time breakdown of Figure 8: document
shredding, local execution, message (de)serialisation, remote
execution, and network transfer.
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(globals(), {
    ".costmodel": "CostModel",
    ".estimate": "CostVector",
    ".stats": "PlanReport RunStats TimeBreakdown",
})

"""Synthetic XMark data (Schmidt et al., VLDB 2002).

The paper's evaluation stores one XMark document per remote peer and
splits the benchmark query's accesses between the ``people`` half
(persons with ids and ages) and the ``auctions`` half (open auctions
with sellers and annotations). This generator reproduces exactly the
element structure those queries touch — plus the bulky payload fields
(addresses, profiles, descriptions) whose *removal* is what makes the
paper's projection numbers interesting — with sizes scaling linearly
in the ``scale`` knob, mirroring XMark's scale factor.
"""

from repro.xmark.generator import (
    XMarkConfig, generate_people, generate_auctions, generate_pair,
)

__all__ = ["XMarkConfig", "generate_people", "generate_auctions",
           "generate_pair"]

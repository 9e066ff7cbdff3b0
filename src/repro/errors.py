"""Exception hierarchy for the repro library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type. The sub-hierarchy mirrors the subsystems:
XML parsing/storage, XQuery compilation and evaluation, decomposition,
the XRPC runtime, and the network and cluster faults — whose type and
peer decide whether a scatter fails over (a :class:`PeerUnavailableError`
naming the replica tried) or fails the query (everything else).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class XmlError(ReproError):
    """Base class for XML storage and parsing errors."""


class XmlParseError(XmlError):
    """Raised when an XML document is not well-formed.

    Carries the character ``offset`` into the input at which parsing
    failed, for error reporting.
    """

    def __init__(self, message: str, offset: int = -1):
        super().__init__(message)
        self.offset = offset


class XQueryError(ReproError):
    """Base class for XQuery compilation and evaluation errors."""


class XQuerySyntaxError(XQueryError):
    """Raised when a query does not conform to the supported grammar.

    Carries the character ``offset`` into the query text.
    """

    def __init__(self, message: str, offset: int = -1):
        super().__init__(message)
        self.offset = offset


class XQueryTypeError(XQueryError):
    """Raised on dynamic type errors (e.g. atomizing a bad operand)."""


class XQueryDynamicError(XQueryError):
    """Raised on dynamic evaluation errors (e.g. unknown document URI)."""


class UndefinedVariableError(XQueryError):
    """Raised when a query references a variable that is not in scope."""

    def __init__(self, name: str):
        super().__init__(f"undefined variable: ${name}")
        self.name = name


class UndefinedFunctionError(XQueryError):
    """Raised when a query calls a function that is not declared."""

    def __init__(self, name: str, arity: int):
        super().__init__(f"undefined function: {name}#{arity}")
        self.name = name
        self.arity = arity


class XrpcError(ReproError):
    """Base class for XRPC runtime errors."""


class XrpcMarshalError(XrpcError):
    """Raised when a value cannot be (un)marshalled into a message."""


class NetworkError(ReproError):
    """Raised by the simulated network (unknown peer, no such document).
    A query error: raised from a replica's body, it fails the round
    trip's shards, with no failover."""


class PeerUnavailableError(NetworkError):
    """A fault that indicts the *peer* ``peer``: the destination is
    down (killed, partitioned away), or a shard replica lacks a
    fragment the catalog places there. The one fault the router fails
    over on, to the next serving replica, when it names the replica
    tried; the attempt, and a detector probe that meets it, count as
    evidence against that peer. Naming another peer (one the replica's
    body called), it is a query error there."""

    def __init__(self, message: str, peer: str | None = None):
        super().__init__(message)
        self.peer = peer


class PeerDownError(PeerUnavailableError):
    """The destination peer was killed via
    :meth:`~repro.runtime.transport.Transport.kill_peer` (the cluster
    layer's replica-failure drill). Fails over, as its base does."""


class ClusterError(NetworkError):
    """Misconfigured or unsatisfiable cluster operation. No failover:
    raised by a replica's body, it fails the round trip's shards as any
    query error does, and is no evidence against the replica."""


class ShardUnavailableError(ClusterError):
    """Every serving replica of one shard failed on the wire, each
    tried once: the query fails. Raised from a replica's body (a nested
    scatter), it fails the enclosing round trip's shards too, with no
    failover."""


class InsufficientHealthyPeersError(ClusterError):
    """Too few peers accept a replica to satisfy the requested
    replication — placing on down/dead/suspect/draining peers would
    only fake the replica count. Fails the placement; nothing is
    retried."""

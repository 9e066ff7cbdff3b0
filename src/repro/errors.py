"""Exception hierarchy for the repro library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type. The sub-hierarchy mirrors the subsystems:
XML parsing/storage, XQuery compilation and evaluation, decomposition,
and the XRPC runtime.
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
    """Raised by the simulated network (unknown peer, no such document)."""


class TransientNetworkError(NetworkError):
    """A wire fault worth retrying against the *same* peer: an injected
    transmission fault or a per-attempt timeout. The peer itself is
    presumed fine — the attempt, not the replica, failed — so the
    router's retry budget applies before any failover.

    Carries the ``peer`` the attempt targeted and the ``attempt``
    ordinal (1-based, set by the retry loop) so operators can tell a
    one-off blip from a peer that only ever answers on attempt three.
    """

    def __init__(self, message: str, peer: str | None = None,
                 attempt: int | None = None):
        super().__init__(message)
        self.peer = peer
        self.attempt = attempt


class PeerUnavailableError(NetworkError):
    """A fault that indicts the *peer*, not the attempt: the destination
    is down (killed, partitioned away). Retrying the same peer is
    pointless; the router fails over to the next replica immediately
    and the membership detector counts the evidence."""

    def __init__(self, message: str, peer: str | None = None):
        super().__init__(message)
        self.peer = peer

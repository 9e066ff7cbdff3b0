"""Static and dynamic evaluation contexts.

The static context carries what the paper's Problem 5 calls "Class 1"
properties (static base URI, default collation, current dateTime) —
XRPC ships these in the message so the remote side can install
identical values; our :class:`StaticContext` is therefore serialisable
into a message and reconstructable on the peer.

The dynamic context carries variable bindings, the context item (for
predicates), the document resolver (how ``fn:doc`` finds documents —
the federation injects a resolver that performs *data shipping* for
remote URIs), and the XRPC executor (how ``execute at`` performs a
remote call — the federation injects the function-shipping transport).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import UndefinedVariableError, XQueryDynamicError
from repro.xmldb.document import Document
from repro.xquery.prepared import Binding


@dataclass(frozen=True)
class StaticContext:
    """Static query properties (XQuery static context subset)."""

    base_uri: str = "http://localhost/"
    default_collation: str = "http://www.w3.org/2005/xpath-functions/collation/codepoint"
    current_datetime: str = "2009-03-29T12:00:00Z"

    def to_attributes(self) -> dict[str, str]:
        """Serialise for the XRPC message envelope (Problem 5 Class 1)."""
        return {
            "xrpc:base-uri": self.base_uri,
            "xrpc:default-collation": self.default_collation,
            "xrpc:current-dateTime": self.current_datetime,
        }

    @classmethod
    def from_attributes(cls, attrs: dict[str, str]) -> "StaticContext":
        return cls(
            base_uri=attrs.get("xrpc:base-uri", cls.base_uri),
            default_collation=attrs.get("xrpc:default-collation",
                                        cls.default_collation),
            current_datetime=attrs.get("xrpc:current-dateTime",
                                       cls.current_datetime),
        )


class CostCounter:
    """Mutable counters the evaluator increments; the benchmark cost
    model converts them into simulated execution time."""

    __slots__ = ("ticks", "nodes_visited", "docs_opened")

    def __init__(self) -> None:
        self.ticks = 0
        self.nodes_visited = 0
        self.docs_opened = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "ticks": self.ticks,
            "nodes_visited": self.nodes_visited,
            "docs_opened": self.docs_opened,
        }

    def mark(self) -> tuple[int, int, int]:
        """The counts now, for :meth:`charge_since`."""
        return self.ticks, self.nodes_visited, self.docs_opened

    def charge_since(self, mark: tuple[int, int, int], times: int) -> None:
        """Make what was charged since ``mark`` count ``times`` times:
        0 takes an abandoned attempt back, n charges one evaluation
        that served n bindings as the n evaluations it replaced."""
        self.ticks = mark[0] + (self.ticks - mark[0]) * times
        self.nodes_visited = mark[1] + (self.nodes_visited - mark[1]) * times
        self.docs_opened = mark[2] + (self.docs_opened - mark[2]) * times


def _no_documents(uri: str) -> Document:
    raise XQueryDynamicError(f"no document available at {uri!r}")


def _no_xrpc(dest: str, params: list[tuple[str, list]], body: Any,
             binding: Binding) -> list:
    raise XQueryDynamicError(
        f"execute at {dest!r}: no XRPC transport configured")


@dataclass
class DynamicContext:
    """One evaluation environment. Immutable in style: binding
    operations return new contexts sharing the counters/resolvers."""

    variables: dict[str, list] = field(default_factory=dict)
    context_item: Any = None
    context_position: int = 0
    context_size: int = 0
    resolve_doc: Callable[[str], Document] = _no_documents
    xrpc_execute: Callable[..., list] = _no_xrpc
    #: Optional Bulk RPC entry point: (dest, [call-params...], body,
    #: binding) -> one result sequence per call. None disables bulk
    #: batching.
    xrpc_execute_bulk: Callable[..., list] | None = None
    counter: CostCounter = field(default_factory=CostCounter)
    #: What the text being run binds to its prepared query's slots
    #: (a :class:`~repro.xquery.ast.LiteralSlot` reads its value here).
    binding: Binding = field(default_factory=Binding)

    def _derive(self, variables: dict[str, list], item: Any = None,
                position: int = 0, size: int = 0) -> "DynamicContext":
        """A new context over the same resolvers, counter and binding."""
        return DynamicContext(variables, item, position, size,
                              self.resolve_doc, self.xrpc_execute,
                              self.xrpc_execute_bulk, self.counter,
                              self.binding)

    def bind(self, name: str, value: list) -> "DynamicContext":
        return self._derive({**self.variables, name: value},
                            self.context_item, self.context_position,
                            self.context_size)

    def bind_many(self, bindings: dict[str, list]) -> "DynamicContext":
        return self._derive({**self.variables, **bindings},
                            self.context_item, self.context_position,
                            self.context_size)

    def lookup(self, name: str) -> list:
        try:
            return self.variables[name]
        except KeyError:
            raise UndefinedVariableError(name) from None

    def with_context(self, item: Any, position: int,
                     size: int) -> "DynamicContext":
        return self._derive(self.variables, item, position, size)

    def fresh_scope(self) -> "DynamicContext":
        """A context with no variable bindings (function body scope)."""
        return self._derive({})

"""Peer-side request handling: the "HTTP server" box of Figure 1.

A :class:`RequestHandler` unmarshals a request's parameters (decoding
shredded its payload), evaluates the shipped function body once per
(bulk) call, and serialises the response — projecting it first when
the request carried projection paths. The body arrives as text in
every request; its ``Evaluator`` (which holds the parsed body) is
interned in the peer's table by the text's *shape*, so a call site is
compiled once however many comparison literals it is served with: the
literals a request's text holds are read off it by one scan and handed
to the evaluation as its binding. The projection paths arrive as text
too, and their compiled trie is interned in the same table by the
request's tuple of path texts.
"""

from __future__ import annotations

from typing import Callable

from repro.paths.relpath import compile_paths, parse_rel_path
from repro.xmldb.document import Document
from repro.xquery.ast import Module
from repro.xquery.context import CostCounter, DynamicContext, StaticContext
from repro.xquery.evaluator import Evaluator
from repro.xquery.prepared import PreparedTable

from repro.xrpc.marshal import marshal_result, unmarshal_calls
from repro.xrpc.messages import RequestMessage, ResponseMessage


class RequestHandler:
    """Executes XRPC requests against one peer's document space."""

    def __init__(self, peer_name: str,
                 resolve_doc: Callable[[str], Document],
                 xrpc_execute: Callable[..., list],
                 semantics: str,
                 counter: CostCounter | None = None,
                 prepared: PreparedTable | None = None):
        self.peer_name = peer_name
        self.resolve_doc = resolve_doc
        self.xrpc_execute = xrpc_execute
        self.semantics = semantics
        self.counter = counter if counter is not None else CostCounter()
        self.prepared = (prepared if prepared is not None
                         else PreparedTable())

    def handle(self, request: RequestMessage) -> ResponseMessage:
        """Evaluate (once per call) and marshal the response."""
        prepared, binding = self.prepared.intern_text(
            request.query, tuple(sorted(request.static_attrs.items())),
            lambda body: Evaluator(
                Module([], body),
                StaticContext.from_attributes(request.static_attrs)))
        evaluator = prepared.value
        body = evaluator.module.body

        calls = unmarshal_calls(request.calls, request.fragments,
                                base_uri=f"xrpc://{self.peer_name}/msg")
        results = evaluator.evaluate_calls(body, DynamicContext(
            resolve_doc=self.resolve_doc, xrpc_execute=self.xrpc_execute,
            counter=self.counter, binding=binding), calls)

        paths = None  # none asked for: a by-fragment answer
        if self.semantics == "by-projection" and (
                request.used_paths is not None
                or request.returned_paths is not None):
            used = tuple(request.used_paths or ())
            returned = tuple(request.returned_paths or ())
            paths = self.prepared.intern(
                ("projection-paths", used, returned),
                lambda: compile_paths(map(parse_rel_path, used),
                                      map(parse_rel_path, returned)))
        bundle = marshal_result(results, self.semantics, paths)
        return ResponseMessage(
            results=[call.params[0][1] for call in bundle.calls],
            fragments=bundle.fragments)

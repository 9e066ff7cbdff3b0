"""Spans recorded from outside the program, for the ``--trace`` pass.

The traced pass wraps the calls *into* each layer's public functions
(the table in :data:`TARGETS`) and records one span per call:
``(id, parent, op, thread, "layer.name", start, end)`` on a per-thread
stack, kept in memory and written out when the workload ends. A
layer's **self time** is its span's duration minus the part covered by
child spans on the same thread, so the self times of one thread's tree
sum to its root exactly; whatever ``Federation.run`` keeps for itself
is the unattributed remainder (``system.attributed_ratio``).

The layers import each other's functions by name (``from
repro.xmldb.parser import parse_document`` in ``system/federation.py``,
``xrpc/messages.py``, …), so :meth:`Recorder.install` rebinds every
``repro.*`` module attribute that *is* the original — not only the
defining module's — and :meth:`Recorder.uninstall` puts every one back.

Threads: an engine worker's ``Federation.run`` span has no parent on
its own stack; it claims the op its client announced for that query
text (:meth:`Recorder.announce`). Spans opened on a scatter pool
thread have neither parent nor op of their own; with one client they
belong to the op in flight and are summed into
``cluster.shard_busy_ms``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict, deque
from time import perf_counter

#: layer.name → ``module:function`` or ``module:Class.method`` wrapped
#: under that name. ``decompose.decompose`` covers ``prepare`` and
#: ``realize`` too: the planner's ``auto`` path calls those two
#: directly instead of ``decompose``.
TARGETS: dict[str, tuple[str, ...]] = {
    "xmldb.parse": ("repro.xmldb.parser:parse_document",
                    "repro.xmldb.parser:parse_fragment"),
    "xmldb.serialize": ("repro.xmldb.serializer:serialize",
                        "repro.xmldb.serializer:serialize_node"),
    "xrpc.encode": ("repro.xrpc.messages:RequestMessage.to_xml",
                    "repro.xrpc.messages:ResponseMessage.to_xml"),
    "xrpc.decode": ("repro.xrpc.messages:RequestMessage.from_xml",
                    "repro.xrpc.messages:ResponseMessage.from_xml"),
    "xrpc.marshal": ("repro.xrpc.marshal:marshal_calls",
                     "repro.xrpc.marshal:marshal_result"),
    "xrpc.unmarshal": ("repro.xrpc.marshal:unmarshal_calls",
                       "repro.xrpc.marshal:unmarshal_result"),
    "xrpc.handle": ("repro.xrpc.peer:RequestHandler.handle",),
    "xquery.parse": ("repro.xquery.parser:parse_query",
                     "repro.xquery.parser:parse_expr"),
    "xquery.eval": ("repro.xquery.evaluator:Evaluator.run",),
    "planner.plan": ("repro.planner.planner:QueryPlanner.plan",),
    "decompose.decompose": ("repro.decompose.strategy:decompose",
                            "repro.decompose.strategy:prepare",
                            "repro.decompose.strategy:realize"),
    "runtime.exchange": ("repro.runtime.transport:Transport.exchange",),
    "runtime.fetch_document":
        ("repro.runtime.transport:Transport.fetch_document",),
    "cluster.scatter": ("repro.cluster.router:ClusterRouter.scatter",),
    "system.run": ("repro.system.federation:Federation.run",),
    "system.store": ("repro.system.federation:Peer.store",),
}

#: The span every query op's tree hangs from.
RUN = "system.run"
#: Spans whose first argument is the text they consume (chars counted).
_COUNT_CHARS = "xmldb.parse"


class Recorder:
    """Installs the wrappers, holds the spans, restores the program."""

    def __init__(self, clients: int = 1):
        self.spans: list[tuple] = []
        self.chars: dict[str, int] = defaultdict(int)
        self.clients = clients
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._announced: dict[str, deque[int]] = defaultdict(deque)
        self._sole_op: int | None = None
        #: ``(owner, attribute, original)`` for every rebinding made.
        self._patched: list[tuple[object, str, object]] = []

    # -- op attribution -------------------------------------------------

    def begin_op(self, op: int) -> None:
        """The calling client thread starts op ``op``."""
        self._local.op = op
        if self.clients == 1:
            self._sole_op = op

    def end_op(self) -> None:
        self._local.op = None
        if self.clients == 1:
            self._sole_op = None

    def announce(self, text: str, op: int) -> None:
        """Op ``op`` is about to hand ``text`` to an engine; the worker
        thread that runs it claims the op by that text."""
        with self._lock:
            self._announced[text].append(op)

    def _claim(self, text: str) -> int | None:
        with self._lock:
            waiting = self._announced.get(text)
            return waiting.popleft() if waiting else None

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        local = self._local
        chars = self.chars if name == _COUNT_CHARS else None
        claims = name == RUN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            op = getattr(local, "op", None)
            claimed = False
            if op is None and claims and not stack:
                # args = (federation, query, …) on an engine worker.
                op = local.op = self._claim(args[1] if len(args) > 1
                                            else kwargs.get("query"))
                claimed = True
            if op is None:
                op = self._sole_op
            if chars is not None:
                chars[name] += len(args[0])
            stack.append(span_id)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                if claimed:
                    local.op = None
                spans.append((span_id, parent, op, threading.get_ident(),
                              name, started, ended))
        wrapper.__wrapped_by_bench__ = True
        return wrapper

    def install(self) -> None:
        """Wrap every target, wherever a ``repro`` module holds it."""
        if self._patched:
            raise RuntimeError("recorder already installed")
        for name, targets in TARGETS.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                module = importlib.import_module(module_name)
                if "." in path:
                    class_name, _, attr = path.partition(".")
                    self._patch_method(name, getattr(module, class_name),
                                       attr)
                else:
                    self._patch_function(name, getattr(module, path))

    def _patch_method(self, name: str, cls: type, attr: str) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement: object = classmethod(
                self._wrap(name, original.__func__))
        else:
            replacement = self._wrap(name, original)
        setattr(cls, attr, replacement)
        self._patched.append((cls, attr, original))

    def _patch_function(self, name: str, original) -> None:
        replacement = self._wrap(name, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every rebound attribute back (idempotent)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def patched(self) -> list[tuple[object, str, object]]:
        """A copy of the current rebindings (for the removal test)."""
        return list(self._patched)

    # -- output ---------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """span id → duration minus the time covered by its children on
    the same thread (children nest inside their parent and do not
    overlap each other there, so plain subtraction is exact)."""
    own = {span[0]: span[6] - span[5] for span in spans}
    for _id, parent, _op, _thread, _name, started, ended in spans:
        if parent:
            own[parent] -= ended - started
    return own


def fold(spans: list[tuple]) -> dict[int | None, dict[str, dict]]:
    """Per op: ``name → {"self": seconds, "calls": n, "orphan":
    seconds}``. ``orphan`` is the summed duration of that name's spans
    that had no parent and are not a ``system.run`` / ``system.store``
    root — i.e. work on scatter pool threads."""
    own = self_times(spans)
    out: dict[int | None, dict[str, dict]] = {}
    for span_id, parent, op, _thread, name, started, ended in spans:
        cell = out.setdefault(op, {}).setdefault(
            name, {"self": 0.0, "calls": 0, "orphan": 0.0})
        cell["self"] += own[span_id]
        cell["calls"] += 1
        if not parent and not name.startswith("system."):
            cell["orphan"] += ended - started
    return out

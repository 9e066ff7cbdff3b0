"""Cross-query Bulk-RPC coalescing.

The paper's Bulk RPC merges the calls of one loop, in one query, into
one message (Section V). Under a concurrent runtime the same
amortisation applies *across* queries: when several in-flight queries
are about to ship the same function body to the same peer, their call
sets can ride in a single ``RequestMessage``.

:class:`BulkBatcher` implements this with a small batching window. The
first arrival for a batch key becomes the *leader*: it waits up to
``window_s`` for other queries to join (or until :data:`MAX_CALLS`
calls pile up), then performs one merged exchange and hands each
participant its slice of the bulk response, serialised from the
leader's decoding of it (which riders only read) into a private
message: bulk identity within each query's slice is preserved (one
fragments preamble per message), and each participant decodes its own
text into documents no other thread sees.

Mergeable means the batch key matches exactly: destination peer,
shipped query text, parameter names, call semantics, static-context
attributes, and the projection-path signature. Anything else would
change the remote evaluation and is never coalesced.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Callable, Hashable

from repro.errors import XrpcMarshalError
from repro.xrpc.messages import AttrRef, NodeRef, ResponseMessage

#: Raw calls as the evaluator hands them over: one list of
#: (param name, value sequence) pairs per call.
RawCalls = list[list[tuple[str, list]]]

#: A batch this many calls long closes without waiting out its window.
MAX_CALLS = 64


def batch_key(dest: str, query: str, param_names: list[str],
              semantics: str, static_attrs: dict[str, str],
              used_paths: list[str] | None,
              returned_paths: list[str] | None) -> Hashable:
    """The identity under which concurrent round trips may merge."""
    return (dest, query, tuple(param_names), semantics,
            tuple(sorted(static_attrs.items())),
            None if used_paths is None else tuple(used_paths),
            None if returned_paths is None else tuple(returned_paths))


class _Batch:
    """One open batch: merged raw calls plus participant slices."""

    def __init__(self, calls: RawCalls):
        self.calls: RawCalls = list(calls)
        self.participants = 1
        self.closed = False
        self.full = threading.Event()
        self.done = threading.Event()
        self.response: ResponseMessage | None = None
        self.response_xml: str | None = None
        self.error: BaseException | None = None


class BulkBatcher:
    """Coalesces concurrent same-key round trips into one exchange."""

    def __init__(self, window_s: float = 0.002,
                 worth_waiting: Callable[[], bool] | None = None):
        self.window_s = window_s
        #: Optional predicate consulted before a leader opens its
        #: window: the engine wires this to "another query is in
        #: flight", so a lone query never pays the window's latency.
        self.worth_waiting = worth_waiting
        self._lock = threading.Lock()
        self._pending: dict[Hashable, _Batch] = {}
        # Counters (under _lock): exchanges actually sent vs. round
        # trips requested, and how many rode along in a merged batch.
        self.exchanges = 0
        self.round_trips = 0
        self.coalesced = 0

    def execute(self, key: Hashable, calls: RawCalls,
                merged_exchange: Callable[[RawCalls], str]) -> str:
        """Run one round trip, possibly merged with concurrent ones.

        ``merged_exchange`` marshals a (possibly larger) raw call list,
        performs the actual wire exchange, and returns the response
        XML text; only the batch leader invokes it. Returns the
        participant's private response XML — the leader's text verbatim
        when nobody coalesced, else its slice of the bulk results over
        the shared fragments preamble (the merged response is parsed
        once, by the leader, only in that case).
        """
        with self._lock:
            self.round_trips += 1
            batch = self._pending.get(key)
            if batch is not None and not batch.closed:
                start = len(batch.calls)
                batch.calls.extend(calls)
                slot = (start, start + len(calls))
                batch.participants += 1
                self.coalesced += 1
                if len(batch.calls) >= MAX_CALLS:
                    batch.full.set()
                leader = False
            else:
                batch = _Batch(calls)
                slot = (0, len(calls))
                self._pending[key] = batch
                if len(batch.calls) >= MAX_CALLS:
                    batch.full.set()
                leader = True

        if leader:
            if (self.window_s > 0 and not batch.full.is_set()
                    and (self.worth_waiting is None
                         or self.worth_waiting())):
                batch.full.wait(self.window_s)
            with self._lock:
                batch.closed = True
                if self._pending.get(key) is batch:
                    del self._pending[key]
                merged = list(batch.calls)
                self.exchanges += 1
            try:
                batch.response_xml = merged_exchange(merged)
                if batch.participants > 1:
                    batch.response = ResponseMessage.from_xml(
                        batch.response_xml)
            except BaseException as exc:
                batch.error = exc
                raise
            finally:
                batch.done.set()
        else:
            batch.done.wait()
            if batch.error is not None:
                # The shared exchange failed; every rider fails with it.
                raise batch.error

        if batch.participants == 1:
            # Nobody coalesced (the common case): the wire response IS
            # this participant's response — skip the split/re-serialise.
            assert batch.response_xml is not None
            return batch.response_xml
        response = batch.response
        assert response is not None
        return _split_response(response, slot).to_xml()

    def snapshot(self) -> dict[str, int | float]:
        with self._lock:
            return {
                "round_trips": self.round_trips,
                "exchanges": self.exchanges,
                "coalesced": self.coalesced,
                "merge_rate": (self.coalesced / self.round_trips
                               if self.round_trips else 0.0),
            }


def _split_response(response: ResponseMessage,
                    slot: tuple[int, int]) -> ResponseMessage:
    """One participant's private response: its result slice over only
    the fragments that slice references, with fragids renumbered.

    Dropping foreign fragments keeps a rider's response (and hence its
    per-query byte accounting and cache entry) close to what a solo
    exchange would have produced; fragments shared with other
    participants still carry the bulk union projection, which is the
    same over-approximation the paper's intra-query Bulk RPC makes.
    Relative fragment order is preserved, so nodeids are untouched.
    """
    results = response.results[slot[0]:slot[1]]
    used = sorted({item.fragid for items in results for item in items
                   if isinstance(item, (NodeRef, AttrRef))})
    # The merged response came off the wire: a fragid outside the
    # preamble is malformed input, not an index to wrap around.
    for fragid in used:
        if not 1 <= fragid <= len(response.fragments):
            raise XrpcMarshalError(f"fragid {fragid} out of range")
    remap = {old: new for new, old in enumerate(used, start=1)}
    if remap:
        results = [[replace(item, fragid=remap[item.fragid])
                    if isinstance(item, (NodeRef, AttrRef)) else item
                    for item in items]
                   for items in results]
    return ResponseMessage(
        results=results,
        fragments=[response.fragments[fragid - 1] for fragid in used])

"""The bounded table prepared queries are interned in: the planner's
:class:`~repro.planner.planner.PreparedQuery` per query text, and a
peer's :class:`~repro.xquery.evaluator.Evaluator` per function body it
is shipped (XRPC ships the body as text in *every* request).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

#: Prepared queries kept per table (the value the end-to-end ledger's
#: ``tenant_mix`` workload — 200 query texts — is defined against).
PLAN_CACHE_SIZE = 128


class PreparedTable:
    """Thread-safe LRU interning: one entry per key, built once."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def intern(self, key: Hashable, build: Callable[[], object]):
        """The entry under ``key``, built on first sight — under the
        lock, so threads racing on one text share one parse."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = build()
                while len(self._entries) > PLAN_CACHE_SIZE:
                    self._entries.popitem(last=False)
            else:
                self._entries.move_to_end(key)
            return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

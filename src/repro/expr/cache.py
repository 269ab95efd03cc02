"""The bounded second-chance LRU map behind the process's caches.

Three caches use a :class:`LoweringCache`, each with its own capacity:

* :mod:`repro.expr.compile` keeps one process-wide, keyed structurally
  by the expression node; each entry is a compiled expression carrying,
  once the production executor has run it, its numpy kernel.  Literals
  are part of the key, so a workload of fresh constants would grow an
  unbounded dict forever; entries not used since
  they were last considered for eviction are dropped past
  :data:`CAPACITY` instead.  Eviction never breaks a plan — compiled
  expressions live on the plan's nodes, and an evicted one is simply
  lowered again the next time a plan needs it.
* :class:`~repro.optimizer.planner.PlanCache` keeps its statement shapes
  (lifted text to plans), one cache per planning context.
* :func:`repro.sql.parser.parse_statement` keeps one process-wide cache
  of parsed statement shapes (literal-free text to a template whose
  literals a hit replaces).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, List, Tuple

#: Entries kept (about 0.7 KB each, more once a kernel is lowered onto
#: one).  A repeated workload the size of the 106-query corpus (about
#: 1 000 distinct nodes) stays all-hits.  Fresh-literal traffic still
#: re-uses a literal now and then (a date, a customer id): on the
#: benchmark's ``template_point`` 4 096 entries forgot enough of those
#: to cost about 12 % of throughput against an unbounded cache, 16 384
#: about half that, and still cap the cache near 12 MB.
CAPACITY = 16384


class LoweringCache:
    """A least-recently-used map ``key -> value`` with hit/miss counters.

    Recency is kept the second-chance way: a hit only marks its entry
    (structural hashing of an expression tree is the expensive part of a
    lookup, and reordering would hash the key again); eviction walks
    from the oldest entry, re-queues marked ones unmarked and drops the
    first unmarked one.

    Safe under concurrent sessions: lookups and inserts hold a lock, the
    (recursive, re-entrant) ``build`` call does not — two threads racing
    on one expression both build, and the equivalent results overwrite
    each other harmlessly.  :meth:`get` and :meth:`put` are the two halves
    of :meth:`get_or_build` for a caller that decides after building
    whether to keep the value.
    """

    def __init__(self, capacity: int = CAPACITY) -> None:
        # key -> [value, used since last considered for eviction]
        self._entries: "OrderedDict[Any, List[Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self._capacity = capacity
        self._hits = 0
        self._misses = 0

    def get_or_build(self, expression: Any, build: Callable[[Any], Any]) -> Any:
        try:
            lowered = self.get(expression)
        except TypeError:  # unhashable custom node: lower without caching
            with self._lock:
                self._misses += 1
            return build(expression)
        if lowered is None:
            lowered = build(expression)
            self.put(expression, lowered)
        return lowered

    def get(self, key: Any) -> Any:
        """The value kept for ``key`` (a hit), else ``None`` (a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            entry[1] = True
            self._hits += 1
            return entry[0]

    def put(self, key: Any, value: Any) -> None:
        """Keep ``value`` for ``key`` (replacing what was kept), evicting
        past the capacity."""
        with self._lock:
            self._entries[key] = [value, False]
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                oldest, entry = self._entries.popitem(last=False)
                if entry[1]:
                    entry[1] = False
                    self._entries[oldest] = entry

    def values(self) -> List[Any]:
        with self._lock:
            return [entry[0] for entry in self._entries.values()]

    def stats(self) -> Tuple[int, int]:
        """``(hits, misses)`` since the last :meth:`clear`."""
        return self._hits, self._misses

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        return len(self._entries)

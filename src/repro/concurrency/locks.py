"""Lock manager: table/row locks, waits-for graph, deadlock detection.

Writers follow strict two-phase locking — an intention-exclusive (IX)
lock on the table plus an exclusive (X) lock per row, all held until
commit or rollback.  Snapshot readers never lock (MVCC gives them a
consistent view without blocking), so the compatibility matrix is tiny:

* IX is compatible with IX (two writers may update *different* rows of
  one table concurrently);
* X is compatible with nothing but itself-by-the-same-owner.

Deadlock handling is detection, not prevention: before a transaction
blocks, its would-be wait edges are added to the waits-for graph and a
DFS looks for a cycle through the requester.  Finding one raises
:class:`~repro.errors.DeadlockError` *in the requester* (victim = the
transaction that closed the cycle — it has done the least waiting), so
a deadlock can never manifest as a hang.  The session layer rolls the
victim back, which releases its locks and wakes the survivors.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import DeadlockError, TransactionError

__all__ = ["LockManager"]

#: Lock key shapes: ("t", table_name) or ("r", table_name, rid).
LockKey = Tuple


class _Lock:
    __slots__ = ("mode", "owners", "waiters")

    def __init__(self) -> None:
        self.mode: Optional[str] = None  # "IX" | "X" | None
        self.owners: Set[int] = set()
        self.waiters: List[int] = []


class LockManager:
    """All lock state behind one mutex + condition.

    Lock operations are short critical sections (set bookkeeping and a
    DFS over the waits-for graph); actual waiting happens on the shared
    condition, re-checking grantability on every wake.
    """

    def __init__(self, timeout: float = 10.0) -> None:
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._locks: Dict[LockKey, _Lock] = {}
        self._held: Dict[int, Set[LockKey]] = {}
        # txn -> the txns it is currently waiting on.
        self._waits_for: Dict[int, Set[int]] = {}
        #: Backstop only: a deadlock is *detected*, never timed out, but
        #: a bug must surface as an error rather than a silent hang.
        self.timeout = timeout
        self.deadlocks_detected = 0
        self.lock_waits = 0

    # -- acquisition --------------------------------------------------------

    def lock_table_ix(self, txn_id: int, table_name: str) -> None:
        self._acquire(txn_id, ("t", table_name), "IX")

    def lock_row_x(self, txn_id: int, table_name: str, rid) -> None:
        self._acquire(txn_id, ("r", table_name, rid), "X")

    def _acquire(self, txn_id: int, key: LockKey, mode: str) -> None:
        with self._cond:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = _Lock()
            if self._grantable(lock, txn_id, mode):
                self._grant(lock, txn_id, key, mode)
                return
            self.lock_waits += 1
            lock.waiters.append(txn_id)
            try:
                while not self._grantable(lock, txn_id, mode):
                    blockers = lock.owners - {txn_id}
                    self._waits_for[txn_id] = set(blockers)
                    cycle = self._find_cycle(txn_id)
                    if cycle is not None:
                        self.deadlocks_detected += 1
                        raise DeadlockError(
                            f"deadlock: transaction {txn_id} waiting for "
                            f"{key!r} closes the cycle "
                            f"{' -> '.join(map(str, cycle))}",
                            cycle=cycle,
                        )
                    if not self._cond.wait(self.timeout):
                        raise TransactionError(
                            f"lock wait timed out after {self.timeout}s on "
                            f"{key!r} (transaction {txn_id}; this is a "
                            f"backstop — deadlocks are detected eagerly)"
                        )
            finally:
                self._waits_for.pop(txn_id, None)
                lock.waiters.remove(txn_id)
            self._grant(lock, txn_id, key, mode)

    def _grantable(self, lock: _Lock, txn_id: int, mode: str) -> bool:
        if not lock.owners or lock.owners == {txn_id}:
            return True
        return mode == "IX" and lock.mode == "IX"

    def _grant(
        self, lock: _Lock, txn_id: int, key: LockKey, mode: str
    ) -> None:
        lock.owners.add(txn_id)
        # X dominates: a txn upgrading its own IX/X keeps the strongest.
        if lock.mode is None or mode == "X":
            lock.mode = mode
        self._held.setdefault(txn_id, set()).add(key)

    # -- deadlock detection -------------------------------------------------

    def _find_cycle(self, start: int) -> Optional[Tuple[int, ...]]:
        """DFS from ``start`` through waits-for edges; a path returning
        to ``start`` is the deadlock cycle (victim first)."""
        path: List[int] = [start]
        seen: Set[int] = set()

        def walk(txn: int) -> Optional[Tuple[int, ...]]:
            for blocker in self._waits_for.get(txn, ()):
                if blocker == start:
                    return tuple(path)
                if blocker in seen:
                    continue
                seen.add(blocker)
                path.append(blocker)
                found = walk(blocker)
                if found is not None:
                    return found
                path.pop()
            return None

        return walk(start)

    # -- release ------------------------------------------------------------

    def release_all(self, txn_id: int) -> None:
        """Drop every lock a transaction holds (commit/rollback)."""
        with self._cond:
            keys = self._held.pop(txn_id, None)
            if not keys:
                return
            for key in keys:
                lock = self._locks.get(key)
                if lock is None:
                    continue
                lock.owners.discard(txn_id)
                if not lock.owners:
                    if lock.waiters:
                        lock.mode = None
                    else:
                        del self._locks[key]
            self._cond.notify_all()

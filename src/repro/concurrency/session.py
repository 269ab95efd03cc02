"""Sessions: one client's transactional view of a shared database.

A :class:`Session` wraps a :class:`~repro.api.SoftDB` that other
sessions share.  The facade itself runs its statements through one
private session, so ``SoftDB.execute("BEGIN")`` opens the same kind of
transaction a session's does; only sessions returned by
:meth:`~repro.api.SoftDB.session` count as open.  Each session owns:

* its **plan cache** and **executor** (the optimizer and registry stay
  shared — plans and execution state are the per-client parts);
* a **WAL transaction stack**, installed around every statement (by
  :meth:`~repro.api.SoftDB.run_statement`) so the durability layer
  tags this session's records with this session's transaction no
  matter which thread runs the statement;
* its **transaction state**: a cc transaction id, a snapshot, and an
  undo-log :class:`~repro.engine.transactions.Transaction`.

Isolation is snapshot isolation.  ``BEGIN`` takes a snapshot that every
statement of the transaction reads; autocommit statements take a
per-statement snapshot (and, for DML, an implicit transaction) whenever
any other session could be watching.  With at most one session open
and no transaction active, every statement runs on the storage fast
path — no snapshot, no locks, no versioning.

Writers follow strict 2PL with first-updater-wins: a DML statement
locks each victim row exclusively before touching it, and a lock wait
that loses the race to a committed-but-invisible writer raises
:class:`~repro.errors.TransactionConflictError`.  A deadlock raises
:class:`~repro.errors.DeadlockError` on the requester.  Either error —
or any other failure inside a DML statement — rolls the *whole*
transaction back (victim rollback) before propagating, so a failed
statement can never leave half its rows inside a transaction that
later commits.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.row import RowId
from repro.engine.transactions import Transaction
from repro.errors import (
    DeadlockError,
    SessionError,
    ShutdownError,
    TransactionConflictError,
    TransactionError,
)
from repro.sql.parser import parse_statement

__all__ = ["Session"]

_session_sequence = 0
_sequence_mutex = threading.Lock()
#: Nothing to install: no durability, or no snapshot to read under.
_NULL = nullcontext()


def _next_session_name() -> str:
    global _session_sequence
    with _sequence_mutex:
        _session_sequence += 1
        return f"session-{_session_sequence}"


class Session:
    """One client connection's execution context over a shared SoftDB.

    Construct via :meth:`repro.api.SoftDB.session`.  Usage::

        with db.session() as s:
            s.execute("BEGIN")
            s.execute("UPDATE kv SET val = 1 WHERE id = 7")
            s.execute("COMMIT")
    """

    def __init__(self, db, name: Optional[str] = None) -> None:
        self.db = db
        self.name = name or _next_session_name()
        self.cc = db.database.concurrency
        # Per-session planning/execution context (shared optimizer).
        self.plan_cache, self.executor = db._planning_pair()
        self.guard = None  # default QueryGuard applied to every statement
        # WAL transaction nesting follows the session, not the thread.
        self._wal_stack: List[int] = []
        # Open transaction state (None outside BEGIN..COMMIT/ROLLBACK).
        self._txn: Optional[Transaction] = None
        self._cc_id: Optional[int] = None
        self._snapshot = None
        self._closed = False
        # close() may be called while a statement is mid-flight on a
        # pool thread (the server's drain-deadline cleanup does exactly
        # that); these coordinate the hand-off so only one thread ever
        # touches the transaction state.
        self._close_requested = False
        self._active = False
        self._state_mutex = threading.Lock()
        # Instrumentation.
        self.statements = 0
        self.commits = 0
        self.rollbacks = 0
        self.conflicts = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def close(self) -> None:
        """Roll back any open transaction and release the session slot.

        Safe to call while a statement is mid-flight on another thread:
        asyncio cancellation cannot interrupt a pool thread, so the
        close is *deferred* to the statement thread — the statement
        aborts with :class:`~repro.errors.ShutdownError` at its next
        lock grant or commit point (it must never commit into a closed
        session) and then finishes the close itself.  Rolling back here
        while the statement thread still holds the transaction would
        race it.
        """
        with self._state_mutex:
            if self._closed:
                return
            self._close_requested = True
            if self._active:
                return
            self._closed = True
        self._teardown()

    def request_close(self) -> None:
        """Flag the session for close without tearing anything down.

        Shutdown calls this on *every* live session before any cleanup
        runs: once the flags are set, no in-flight statement can commit
        no matter what order the per-connection teardowns release locks
        in.  The actual close still happens via :meth:`close` (or the
        statement thread's deferred finish).
        """
        with self._state_mutex:
            if not self._closed:
                self._close_requested = True

    def _teardown(self) -> None:
        if self._txn is not None:
            try:
                with self._wal_context():
                    self._finish_rollback()
            finally:
                self._clear_txn_state()
        self.cc.sessions.discard(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        sql: str,
        guard: Optional[Any] = None,
        cancel: Optional[Any] = None,
    ):
        """Run one SQL statement in this session's context.

        Same contract as :meth:`repro.api.SoftDB.execute`, plus the
        transaction-control statements ``BEGIN`` / ``COMMIT`` /
        ``ROLLBACK``.
        """
        with self._state_mutex:
            if self._closed or self._close_requested:
                raise SessionError(f"session {self.name!r} is closed")
            self._active = True
        try:
            self.statements += 1
            # Parsed here, once; the facade's statement path does the
            # rest with this session as its context.
            return self.db.run_statement(
                parse_statement(sql),
                sql,
                guard if guard is not None else self.guard,
                cancel,
                context=self,
            )
        finally:
            with self._state_mutex:
                self._active = False
                finish_close = self._close_requested and not self._closed
                if finish_close:
                    self._closed = True
            if finish_close:
                self._teardown()

    def query(self, sql: str) -> List[Dict[str, Any]]:
        result = self.execute(sql)
        return result.rows

    # -- transaction control --------------------------------------------------

    def _wal_context(self):
        durability = self.db.durability
        if durability is None:
            return _NULL
        return durability.txn_context(self._wal_stack)

    def _begin(self) -> None:
        if self._txn is not None:
            raise TransactionError("a transaction is already open")
        self._cc_id = self.cc.begin()
        self._snapshot = self.cc.take_snapshot(owner=self._cc_id)
        self._txn = Transaction(self.db.database)

    def _commit(self) -> None:
        if self._txn is None:
            raise TransactionError("no transaction is open")
        txn, cc_id, snapshot = self._txn, self._cc_id, self._snapshot
        self._clear_txn_state()
        # Order matters: the WAL commit record must be durable (flushed,
        # possibly as part of a commit group) *before* the version flips
        # visible — a snapshot must never read a commit a crash could
        # still revoke.  The snapshot is released before the cc commit or
        # abort, which vacuums only when no snapshot is registered.
        try:
            txn.commit()
        except BaseException:
            self.cc.release_snapshot(snapshot)
            self.cc.abort(cc_id)
            raise
        self.cc.release_snapshot(snapshot)
        self.cc.commit(cc_id)
        self.commits += 1

    def _rollback(self) -> None:
        if self._txn is None:
            raise TransactionError("no transaction is open")
        self._finish_rollback()
        self._clear_txn_state()

    def _finish_rollback(self) -> None:
        txn, cc_id, snapshot = self._txn, self._cc_id, self._snapshot
        try:
            # Compensations run under the same writer stamp, so the
            # version chains stay self-consistent for concurrent
            # snapshots; the cc abort then hides the whole chain.
            with self.cc.writing(cc_id):
                txn.rollback()
        finally:
            self.cc.release_snapshot(snapshot)
            self.cc.abort(cc_id)
            self.rollbacks += 1

    def _check_close_requested(self) -> None:
        """Abort the statement if the session was closed under it.

        A lock wait can outlive the connection that issued the
        statement (the server's drain deadline cancels the *awaiter*,
        never the pool thread).  Winning the lock after that must not
        turn into a commit — the caller's rollback path runs instead.
        """
        if self._close_requested:
            raise ShutdownError(
                f"session {self.name!r} was closed while the statement "
                f"was in flight; rolling back"
            )

    def _clear_txn_state(self) -> None:
        self._txn = None
        self._cc_id = None
        self._snapshot = None

    # -- the session as a statement context -----------------------------------

    def _read_scope(self):
        """A query reads the transaction's snapshot, or, in autocommit
        with another session watching, one taken for the statement."""
        if self._snapshot is not None:
            return self.cc.reading(self._snapshot)
        return self._statement_snapshot() if self.cc.tracking else _NULL

    @contextmanager
    def _statement_snapshot(self):
        snapshot = self.cc.take_snapshot()
        try:
            with self.cc.reading(snapshot):
                yield
        finally:
            self.cc.release_snapshot(snapshot)

    def _run_dml(self, apply: Callable[..., int], table_name: str) -> int:
        if self._txn is None and not self.cc.tracking:
            # Fast path: autocommit with no other session watching.
            with self.db.database._statement_scope():
                return apply()
        own = self._txn is None
        if own:
            self._begin()
        try:
            # Intent-lock the table before locating victims, which the
            # applier reads as of the snapshot installed here.
            self.cc.locks.lock_table_ix(self._cc_id, table_name)
            with self.cc.writing(self._cc_id), self.cc.reading(self._snapshot):
                count = apply(txn=self._txn, claim=self._claim)
            # The session may have been closed while this statement was
            # blocked on a lock; it must not commit into a closed
            # session.
            self._check_close_requested()
        except BaseException as error:
            # Statement atomicity inside a transaction would require
            # partial undo; the engine's Transaction is all-or-nothing,
            # so any mid-statement failure aborts the transaction.  For
            # a deadlock or conflict this is the victim rollback: locks
            # are freed and waiters wake.
            if isinstance(error, (DeadlockError, TransactionConflictError)):
                self.conflicts += 1
            self._rollback()
            raise
        if own:
            self._commit()
        return count

    def _claim(self, table, rid: RowId) -> Tuple[Any, ...]:
        """X-lock one row the statement writes; returns its current heap
        image.

        The lock may force a wait behind another writer; once granted,
        first-updater-wins is checked against this session's snapshot
        and the heap is re-read — a row the blocker deleted or forwarded
        away surfaces as a conflict, not a silent miss (a blocker that
        rolled back left the row where it was).  A row this
        statement just inserted is claimed the same way: strict 2PL
        keeps it ours to commit.
        """
        self.cc.lock_row_for_write(
            self._cc_id, table.name, rid, self._snapshot
        )
        self._check_close_requested()
        with self.cc.latch:
            current = table.pages.pages[rid.page_id].slots[rid.slot_no]
        if current is None:
            raise TransactionConflictError(
                f"row {rid} of {table.name!r} moved or vanished while "
                f"waiting for its lock"
            )
        return current

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "in-txn" if self._txn is not None else "idle"
        )
        return f"Session({self.name}, {state})"

"""Sessions: one client's transactional view of a shared database.

A :class:`Session` wraps a :class:`~repro.api.SoftDB` that other
sessions share.  Each session owns:

* its **plan cache** and **executor** (the optimizer, registry, and
  feedback store stay shared — plans and execution state are the
  per-client parts);
* a **WAL transaction stack**, installed around every statement so the
  durability layer tags this session's records with this session's
  transaction no matter which thread runs the statement;
* its **transaction state**: a cc transaction id, a snapshot, and an
  undo-log :class:`~repro.engine.transactions.Transaction`.

Isolation is snapshot isolation.  ``BEGIN`` takes a snapshot that every
statement of the transaction reads; autocommit statements take a
per-statement snapshot (and, for DML, an implicit transaction) whenever
any other session could be watching.  With one session open and no
transaction active, every statement runs on the storage fast path —
no snapshot, no locks, no versioning.

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
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.row import RowId
from repro.engine.transactions import Transaction
from repro.errors import (
    DeadlockError,
    SessionError,
    ShutdownError,
    TransactionConflictError,
    TransactionError,
)
from repro.expr.eval import compile_predicate, evaluate
from repro.sql import ast
from repro.sql.parser import parse_statement

__all__ = ["Session"]

_session_sequence = 0
_sequence_mutex = threading.Lock()


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
        from repro.executor.runtime import Executor
        from repro.optimizer.planner import PlanCache

        self.db = db
        self.name = name or _next_session_name()
        self.cc = db.database.concurrency
        if self.cc is None:
            raise SessionError(
                "no concurrency engine attached; construct sessions "
                "through SoftDB.session()"
            )
        # Per-session planning/execution context (shared optimizer).
        self.plan_cache = PlanCache(
            db.optimizer,
            qerror_threshold=(
                db.config.feedback_qerror_threshold
                if db.feedback is not None
                else None
            ),
        )
        self.executor = Executor(
            db.database,
            db.registry,
            batch_size=db.config.batch_size,
            feedback=db.feedback,
            workers=db.config.workers if db.config.workers else None,
        )
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
        with self.cc._snap_mutex:
            self.cc.sessions_open += 1

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
        with self.cc._snap_mutex:
            self.cc.sessions_open -= 1

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        sql: str,
        use_cache: bool = False,
        batch_size: Optional[int] = None,
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
            return self._execute(
                sql, use_cache, batch_size, guard, cancel
            )
        finally:
            with self._state_mutex:
                self._active = False
                finish_close = self._close_requested and not self._closed
                if finish_close:
                    self._closed = True
            if finish_close:
                self._teardown()

    def _execute(self, sql, use_cache, batch_size, guard, cancel):
        self.statements += 1
        statement = parse_statement(sql)
        with self._wal_context():
            if isinstance(statement, ast.BeginTransaction):
                self._begin()
                return None
            if isinstance(statement, ast.CommitTransaction):
                self._commit()
                return None
            if isinstance(statement, ast.RollbackTransaction):
                self._rollback()
                return None
            if isinstance(statement, (ast.SelectStatement, ast.UnionAll)):
                return self._select(
                    statement, sql, use_cache, batch_size, guard, cancel
                )
            if isinstance(statement, (ast.Insert, ast.Delete, ast.Update)):
                return self._dml(statement)
        # DDL runs through the shared facade, outside any transaction.
        if self._txn is not None:
            raise TransactionError(
                "DDL is not supported inside an explicit transaction"
            )
        return self.db.execute(sql)

    def query(self, sql: str) -> List[Dict[str, Any]]:
        result = self.execute(sql)
        return result.rows

    # -- transaction control --------------------------------------------------

    def _wal_context(self):
        durability = self.db.durability
        if durability is None:
            return nullcontext()
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
        # still revoke.
        try:
            txn.commit()
        except BaseException:
            self.cc.abort(cc_id)
            self.cc.release_snapshot(snapshot)
            raise
        self.cc.commit(cc_id)
        self.cc.release_snapshot(snapshot)
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
            self.cc.abort(cc_id)
            self.cc.release_snapshot(snapshot)
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

    # -- SELECT ---------------------------------------------------------------

    def _select(self, statement, sql, use_cache, batch_size, guard, cancel):
        if use_cache:
            plan = self.plan_cache.get_plan(sql)
        else:
            plan = self.db.optimizer.optimize(statement)
        snapshot = self._snapshot
        release = False
        if snapshot is None and self.cc.tracking:
            snapshot = self.cc.take_snapshot()
            release = True
        try:
            with self.cc.reading(snapshot):
                result = self.executor.execute(
                    plan,
                    batch_size=batch_size,
                    guard=guard if guard is not None else self.guard,
                    cancel=cancel,
                )
        finally:
            if release:
                self.cc.release_snapshot(snapshot)
        if (
            use_cache
            and self.db.feedback is not None
            and not result.truncated
        ):
            self.plan_cache.note_execution(sql, result.max_qerror)
        return result

    # -- DML ------------------------------------------------------------------

    def _dml(self, statement) -> int:
        if self._txn is None and not self.cc.tracking:
            # Single-session fast path: identical to the facade's DML.
            with self.db.database._statement_scope():
                if isinstance(statement, ast.Insert):
                    return self.db._execute_insert(statement)
                if isinstance(statement, ast.Delete):
                    return self.db._execute_delete(statement)
                return self.db._execute_update(statement)
        own = self._txn is None
        if own:
            self._begin()
        try:
            count = self._apply_dml(statement)
            # The session may have been closed while this statement was
            # blocked on a lock; it must not commit into a closed
            # session.
            self._check_close_requested()
        except (DeadlockError, TransactionConflictError):
            self.conflicts += 1
            self._rollback()  # victim rollback — locks freed, waiters wake
            raise
        except BaseException:
            # Statement atomicity inside a transaction would require
            # partial undo; the engine's Transaction is all-or-nothing,
            # so any mid-statement failure aborts the transaction.
            self._rollback()
            raise
        if own:
            self._commit()
        return count

    def _apply_dml(self, statement) -> int:
        with self.cc.writing(self._cc_id), self.cc.reading(self._snapshot):
            if isinstance(statement, ast.Insert):
                return self._insert(statement)
            if isinstance(statement, ast.Delete):
                return self._delete(statement)
            return self._update(statement)

    def _insert(self, statement: ast.Insert) -> int:
        table = self.db.database.table(statement.table)
        rows: List[List[Any]] = []
        for row_expressions in statement.rows:
            values = [evaluate(expr, {}) for expr in row_expressions]
            if statement.columns:
                if len(values) != len(statement.columns):
                    from repro.errors import ExecutionError

                    raise ExecutionError(
                        "INSERT value count does not match column list"
                    )
                mapping = dict(zip(statement.columns, values))
                values = table.schema.row_from_mapping(mapping)
            rows.append(values)
        self.cc.locks.lock_table_ix(self._cc_id, table.name)
        for values in rows:
            rid = self._txn.insert(statement.table, values)
            # X-lock the fresh row: strict 2PL keeps it ours to commit.
            self.cc.locks.lock_row_x(self._cc_id, table.name, rid)
        return len(rows)

    def _victims(
        self, table, where
    ) -> List[Tuple[RowId, Tuple[Any, ...]]]:
        """Snapshot-visible rows matching ``where`` (rid, image) pairs."""
        names = table.schema.column_names()
        predicate = (
            (lambda row: True) if where is None else compile_predicate(where)
        )
        out = []
        for rid, row in self.cc.visible_scan(table, self._snapshot):
            if predicate(dict(zip(names, row))) is True:
                out.append((rid, row))
        return out

    def _lock_victim(self, table, rid: RowId) -> Tuple[Any, ...]:
        """X-lock one victim row; returns its current heap image.

        The lock may force a wait behind another writer; once granted,
        first-updater-wins is checked against this session's snapshot
        and the heap is re-read — a row forwarded away by the blocker's
        rollback surfaces as a conflict, not a silent miss.
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

    def _delete(self, statement: ast.Delete) -> int:
        table = self.db.database.table(statement.table)
        self.cc.locks.lock_table_ix(self._cc_id, table.name)
        victims = self._victims(table, statement.where)
        for rid, _snapshot_row in victims:
            self._lock_victim(table, rid)
            self._txn.delete(statement.table, rid)
        return len(victims)

    def _update(self, statement: ast.Update) -> int:
        table = self.db.database.table(statement.table)
        names = table.schema.column_names()
        assignments = statement.assignments
        self.cc.locks.lock_table_ix(self._cc_id, table.name)
        victims = self._victims(table, statement.where)
        for rid, _snapshot_row in victims:
            current = self._lock_victim(table, rid)
            row_dict = dict(zip(names, current))
            row_dict.update(
                {
                    column: evaluate(expression, dict(zip(names, current)))
                    for column, expression in assignments
                }
            )
            self._txn.update(
                statement.table, rid, [row_dict[name] for name in names]
            )
        return len(victims)

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "in-txn" if self._txn is not None else "idle"
        )
        return f"Session({self.name}, {state})"

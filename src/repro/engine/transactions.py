"""Minimal transactions: statement grouping with rollback via an undo log.

The paper's concurrency discussion (Section 4.1) concerns what happens when
one transaction *overturns* an ASC that another transaction's plan relied
on.  To reproduce that story we need transactions only as units of change
with abort/commit — not full ARIES.  A :class:`Transaction` wraps a
:class:`~repro.engine.database.Database`, records undo entries for every
change made through it, and replays them in reverse on rollback.

Undo is physical, as in ARIES: rollback puts each row back at its own
rid, by which a concurrent snapshot reader finds the row's older
versions.  Slots the transaction frees stay reserved until it resolves,
for every writer, itself included.  Compensations are logged under the
transaction's id before its ``abort``, so redo repeats the rollback.

Change events are published immediately (the soft-constraint manager is
told about violations when they happen, matching the paper's synchronous
maintenance); a rolled-back transaction publishes compensating events so
observers stay consistent.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.engine.page import Page
from repro.engine.row import RowId
from repro.errors import RollbackError, TransactionError


class _UndoEntry(NamedTuple):
    kind: str  # "insert" | "delete" | "update"
    table_name: str
    # Where the change left the row (for a delete, its tombstone): the
    # compensation is applied here.
    row_id: RowId
    # The image before the change; None for an insert.
    old_row: Optional[Tuple[Any, ...]]
    # An update's pre-image rid, where its compensation leaves the row.
    pre_rid: Optional[RowId] = None


class Transaction:
    """A unit of work over one database.

    Usage::

        with Transaction(db) as txn:
            txn.insert("t", [1, "x"])
            txn.delete("t", some_row_id)
        # commits on clean exit, rolls back on exception
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._undo: List[_UndoEntry] = []
        self._reserved: List[Tuple[Page, int]] = []
        self._state = "active"
        # Durable transaction id: WAL records written while this
        # transaction is open are tagged with it, and recovery replays
        # them only if its commit or abort record made it to disk.
        self._txn_id: Optional[int] = None
        if database.durability is not None:
            self._txn_id = database.durability.txn_begin()

    # -- lifecycle ----------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self._state == "active"

    def _require_active(self) -> None:
        if self._state != "active":
            raise TransactionError(f"transaction is {self._state}")

    def commit(self) -> None:
        self._require_active()
        self._undo.clear()
        self._state = "committed"
        if self._txn_id is not None:
            self.database.durability.txn_commit(self._txn_id)
        # Only once the commit record is logged: a writer that reuses a
        # freed slot must log after the change that freed it.
        self._release()

    def rollback(self) -> None:
        """Undo every change made through this transaction, newest first.

        Each compensation is the inverse change at the same rid, so every
        entry's rids still hold when its turn comes: an undone delete
        refills its reserved tombstone, an undone update leaves the old
        image at the pre-image rid.  Compensations take the normal DML
        paths (checked, versioned, logged, one compensating event each).

        Exception-safe: a failing undo entry (e.g. a storage fault mid
        recovery) does not abandon the rest of the log.  Every remaining
        entry is still applied, the transaction always deactivates, and
        the failures are re-raised aggregated in a single
        :class:`~repro.errors.RollbackError`.
        """
        self._require_active()
        database = self.database
        failures: List[Exception] = []
        try:
            for entry in reversed(self._undo):
                try:
                    if entry.kind == "insert":
                        database.delete_row(entry.table_name, entry.row_id)
                    elif entry.kind == "delete":
                        database.insert(
                            entry.table_name, entry.old_row, at=entry.row_id
                        )
                    else:  # update
                        database.update_row(
                            entry.table_name,
                            entry.row_id,
                            entry.old_row,
                            at=entry.pre_rid,
                        )
                except Exception as error:  # noqa: BLE001 - aggregated below
                    failures.append(error)
        finally:
            self._undo.clear()
            self._state = "rolled_back"
            if self._txn_id is not None:
                # Compensations were logged under the same txn id, so
                # redo replays the changes and their undo together.
                database.durability.txn_abort(self._txn_id)
            self._release()
        if failures:
            raise RollbackError(
                f"{len(failures)} undo entr"
                f"{'y' if len(failures) == 1 else 'ies'} failed during "
                f"rollback: {failures[0]}",
                failures=failures,
            )

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        if not self.is_active:
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()

    # -- slot reservation -----------------------------------------------------

    def _reserve(self, table_name: str, row_id: RowId) -> None:
        """Reserve a slot *before* the write that may free it, so no
        concurrent placement slips in between (a slot left live is
        unaffected)."""
        page = self.database.table(table_name).pages.pages[row_id.page_id]
        page.reserved.add(row_id.slot_no)
        self._reserved.append((page, row_id.slot_no))

    def _release(self) -> None:
        for page, slot_no in self._reserved:
            page.reserved.discard(slot_no)
        self._reserved.clear()

    # -- DML ------------------------------------------------------------------

    def insert(self, table_name: str, values: Sequence[Any]) -> RowId:
        self._require_active()
        row_id = self.database.insert(table_name, values)
        self._undo.append(_UndoEntry("insert", table_name.lower(), row_id, None))
        return row_id

    def delete(self, table_name: str, row_id: RowId) -> Tuple[Any, ...]:
        self._require_active()
        self._reserve(table_name, row_id)
        old_row = self.database.delete_row(table_name, row_id)
        self._undo.append(_UndoEntry("delete", table_name.lower(), row_id, old_row))
        return old_row

    def update(
        self, table_name: str, row_id: RowId, values: Sequence[Any]
    ) -> RowId:
        self._require_active()
        table = self.database.table(table_name)
        old_row = table.fetch(row_id)
        self._reserve(table_name, row_id)
        new_id = self.database.update_row(table_name, row_id, values)
        self._undo.append(
            _UndoEntry("update", table_name.lower(), new_id, old_row, row_id)
        )
        return new_id

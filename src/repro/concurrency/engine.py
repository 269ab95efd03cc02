"""The concurrency engine: latch, version overlay, locks, and contexts.

Every :class:`~repro.engine.database.Database` owns one
:class:`ConcurrencyEngine` (``database.concurrency``) from construction.
It owns:

* the **engine latch** — a reentrant lock held for the duration of each
  DML row mutation and by snapshot readers for each page they
  reconstruct, so a reader never observes a half-applied row change;
* the **version store** and **transaction manager** (see
  :mod:`repro.concurrency.mvcc`);
* the **lock manager** for writers (strict 2PL, deadlock detection);
* per-thread **read/write contexts**: a scan consults
  :meth:`current_snapshot` once at scan start — when it is None (no
  statement is reading under a snapshot on this thread) the storage fast
  path runs untouched, which is what keeps MVCC out of the hot loop
  while no transaction is open and at most one session is.

The database's DML paths call the ``note_*`` hooks after each heap
mutation; with no writer context and tracking off they return
immediately, so an untracked write is never versioned.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Tuple

from repro.concurrency.groupcommit import GroupCommitter
from repro.concurrency.locks import LockManager
from repro.concurrency.mvcc import Snapshot, TransactionManager, VersionStore
from repro.engine.index import FetchBuffer
from repro.engine.row import RowId
from repro.errors import TransactionConflictError

__all__ = ["ConcurrencyEngine"]


def _key_in_range(
    key: Tuple[Any, ...],
    low: Optional[Tuple[Any, ...]],
    high: Optional[Tuple[Any, ...]],
    low_inclusive: bool,
    high_inclusive: bool,
) -> bool:
    """Mirror of the B-tree's prefix-bound range semantics (an
    inclusive prefix bound admits every extension of the prefix)."""
    if low is not None:
        head = key[: len(low)]
        if head < low or (not low_inclusive and head <= low):
            return False
    if high is not None:
        head = key[: len(high)]
        if head > high or (not high_inclusive and head >= high):
            return False
    return True


class _ThreadContext(threading.local):
    """Per-thread read snapshot and writer; class defaults make reads cheap."""
    snapshot: Optional[Snapshot] = None
    writer: Optional[int] = None


class ConcurrencyEngine:
    """MVCC + locking + sessions for one database."""

    def __init__(self, database) -> None:
        self.database = database
        self.latch = threading.RLock()
        self.versions = VersionStore()
        self.txns = TransactionManager()
        self.locks = LockManager()
        self._tls = _ThreadContext()
        self._snap_mutex = threading.Lock()
        self._active_snapshots: dict = {}
        #: Open sessions from ``SoftDB.session()`` (never the facade's).
        self.sessions: set = set()
        self.group_commit: Optional[GroupCommitter] = None

    @property
    def sessions_open(self) -> int:
        return len(self.sessions)

    def attach_group_commit(self, durability) -> None:
        """Install group commit on the database's durability manager.

        The committer stays dormant (``wal.flush()`` direct) until more
        than one session is open — a lone session must not pay the
        gather window on every commit.
        """
        if durability is None or self.group_commit is not None:
            return
        self.group_commit = GroupCommitter(
            durability.wal, is_active=lambda: self.sessions_open > 1
        )
        durability.group_commit = self.group_commit

    # -- per-thread contexts ------------------------------------------------

    def current_snapshot(self) -> Optional[Snapshot]:
        return self._tls.snapshot

    @contextmanager
    def reading(self, snapshot: Optional[Snapshot]):
        """Install a snapshot as this thread's read context."""
        previous = self._tls.snapshot
        self._tls.snapshot = snapshot
        try:
            yield
        finally:
            self._tls.snapshot = previous

    @contextmanager
    def writing(self, txn_id: Optional[int]):
        """Install a transaction id as this thread's write context."""
        previous = self._tls.writer
        self._tls.writer = txn_id
        try:
            yield
        finally:
            self._tls.writer = previous

    # -- transaction lifecycle ----------------------------------------------

    def begin(self) -> int:
        return self.txns.begin()

    def commit(self, txn_id: int) -> None:
        """Flip visibility (call *after* the WAL flush) and unlock."""
        self.txns.commit(txn_id)
        self.locks.release_all(txn_id)
        self._maybe_vacuum()

    def abort(self, txn_id: int) -> None:
        self.txns.abort(txn_id)
        self.locks.release_all(txn_id)
        self._maybe_vacuum()

    @property
    def tracking(self) -> bool:
        """Whether writes must be versioned: true whenever another
        session could be holding a snapshot or a transaction is open."""
        return self.sessions_open > 1 or self.txns.active_count > 0

    # -- snapshots -----------------------------------------------------------

    def take_snapshot(self, owner: Optional[int] = None) -> Snapshot:
        snapshot = self.txns.snapshot(owner)
        with self._snap_mutex:
            self._active_snapshots[id(snapshot)] = snapshot
        return snapshot

    def release_snapshot(self, snapshot: Optional[Snapshot]) -> None:
        if snapshot is None:
            return
        with self._snap_mutex:
            self._active_snapshots.pop(id(snapshot), None)

    def horizon(self) -> int:
        """Oldest txn id any active snapshot (or transaction) questions."""
        floors = [self.txns.snapshot(None).xmax]
        with self._snap_mutex:
            floors.extend(
                s.horizon() for s in self._active_snapshots.values()
            )
        with self.txns._mutex:
            floors.extend(self.txns._active)
        return min(floors)

    def vacuum(self) -> int:
        """Drop version chains no snapshot can need; returns the count."""
        with self.latch:
            return self.versions.vacuum(self.horizon(), self.txns)

    def _maybe_vacuum(self) -> None:
        if self.txns.active_count == 0 and not self._active_snapshots:
            self.vacuum()

    # -- write hooks (called by Database DML under the latch) ---------------

    def _writer_for_note(self) -> Optional[int]:
        writer = self._tls.writer
        if writer is not None or not self.tracking:
            return writer
        # A write outside any session transaction while others may hold
        # snapshots: stamp it with an instantly-committed transaction so
        # pre-existing snapshots (xmax below it) do not see it.
        txn_id = self.txns.begin()
        self.txns.commit(txn_id)
        return txn_id

    def note_insert(self, table_name: str, rid: RowId) -> None:
        writer = self._writer_for_note()
        if writer is None:
            return
        self.versions.note_insert(table_name, rid, writer)

    def note_delete(
        self, table_name: str, rid: RowId, old_row: Tuple[Any, ...]
    ) -> None:
        writer = self._writer_for_note()
        if writer is None:
            return
        self.versions.note_delete(table_name, rid, old_row, writer)

    def note_update(
        self,
        table_name: str,
        old_rid: RowId,
        new_rid: RowId,
        old_row: Tuple[Any, ...],
    ) -> None:
        writer = self._writer_for_note()
        if writer is None:
            return
        self.versions.note_update(table_name, old_rid, new_rid, old_row, writer)

    # -- write-write conflicts ----------------------------------------------

    def lock_row_for_write(
        self, txn_id: int, table_name: str, rid: RowId, snapshot: Snapshot
    ) -> None:
        """Strict-2PL row lock plus the first-updater-wins check.

        After the X lock is granted (possibly after waiting out another
        writer's commit), the row's newest stamp is re-read: a committed
        writer this snapshot cannot see means the wait lost the race,
        and proceeding would overwrite an update the transaction never
        observed.
        """
        self.locks.lock_table_ix(txn_id, table_name)
        self.locks.lock_row_x(txn_id, table_name, rid)
        with self.latch:
            stamp = self.versions.stamp(table_name, rid)
        if (
            stamp is not None
            and stamp != txn_id
            and not snapshot.visible(stamp)
            and not self.txns.is_aborted(stamp)
        ):
            raise TransactionConflictError(
                f"row {rid} of {table_name!r} was updated by transaction "
                f"{stamp}, which committed after this snapshot; first "
                f"updater wins"
            )

    # -- snapshot scans ------------------------------------------------------

    def visible_scan(
        self, table, snapshot: Snapshot
    ) -> Iterator[Tuple[RowId, Tuple[Any, ...]]]:
        """Full scan of ``table`` as of ``snapshot``: (rid, image) pairs.

        Page order and slot order match the raw heap scan; I/O is
        charged identically (one page read per page, one row read per
        visible row).  The latch is taken per page, so a concurrent
        writer can slip between pages but never into one.
        """
        for _page_id, rows in self._visible_pages(table, snapshot):
            for item in rows:
                yield item

    def visible_row_runs(
        self, table, snapshot: Snapshot
    ) -> Iterator[List[Tuple[Any, ...]]]:
        """:meth:`visible_scan` as one list of row images per page that
        has any, for the batched sequential scan."""
        for _page_id, rows in self._visible_pages(table, snapshot):
            yield [row for _rid, row in rows]

    def _visible_pages(self, table, snapshot: Snapshot):
        pages = table.pages
        table_name = table.name
        for page_id in range(pages.page_count):
            with self.latch:
                page = pages.read_page(page_id)
                versions = self.versions.table(table_name)
                touched = (
                    versions.by_page.get(page_id)
                    if versions is not None
                    else None
                )
                out: List[Tuple[RowId, Tuple[Any, ...]]] = []
                if not touched:
                    for slot_no, row in enumerate(page.slots):
                        if row is not None:
                            out.append((RowId(page_id, slot_no), row))
                else:
                    for slot_no, row in enumerate(page.slots):
                        if slot_no in touched:
                            rid = RowId(page_id, slot_no)
                            image = self.versions.reconstruct(
                                table_name, rid, row, snapshot
                            )
                            if image is not None:
                                out.append((rid, image))
                        elif row is not None:
                            out.append((RowId(page_id, slot_no), row))
                if out:
                    pages.read_row(len(out))
            if out:
                yield page_id, out

    def visible_index_rows(
        self,
        table,
        index,
        low,
        high,
        low_inclusive: bool,
        high_inclusive: bool,
        snapshot: Snapshot,
    ) -> Iterator[Tuple[RowId, Tuple[Any, ...]]]:
        """Index range scan as of ``snapshot``: (rid, image) pairs merged
        in key order.

        The index reflects the *current* heap, so entries for rows
        touched by any versioned writer are set aside and re-derived
        from their reconstructed images (a concurrent key update moves
        an entry; a concurrent delete removes one the snapshot must
        still see).  Untouched entries stream straight from the B-tree;
        the overlay's reconstructed keys are sorted and merged in.
        """
        table_name = table.name
        with self.latch:
            entries = list(
                index.range_scan(
                    low=low,
                    high=high,
                    low_inclusive=low_inclusive,
                    high_inclusive=high_inclusive,
                )
            )
            versions = self.versions.table(table_name)
            touched = (
                frozenset(versions.chains.keys())
                if versions is not None
                else frozenset()
            )
            overlay: List[Tuple[Any, RowId, Tuple[Any, ...]]] = []
            heap_pages = table.pages.pages
            for rid in touched:
                heap_image = heap_pages[rid.page_id].slots[rid.slot_no]
                image = self.versions.reconstruct(
                    table_name, rid, heap_image, snapshot
                )
                if image is None:
                    continue
                key = index.key_of(image)
                if key is None or not _key_in_range(
                    key, low, high, low_inclusive, high_inclusive
                ):
                    continue
                overlay.append((key, rid, image))
            overlay.sort(key=lambda item: (item[0], item[1]))
        buffer = FetchBuffer(table.pages.counters)
        main = iter(
            [(key, rid) for key, rid in entries if rid not in touched]
        )
        over = iter(overlay)
        next_main = next(main, None)
        next_over = next(over, None)
        while next_main is not None or next_over is not None:
            take_main = next_over is None or (
                next_main is not None and next_main[0] <= next_over[0]
            )
            if take_main:
                key, rid = next_main
                with self.latch:
                    row = heap_pages[rid.page_id].slots[rid.slot_no]
                next_main = next(main, None)
                if row is None:
                    continue
            else:
                key, rid, row = next_over
                next_over = next(over, None)
            buffer.fetch(rid.page_id)
            buffer.counters.rows_read += 1
            yield rid, row

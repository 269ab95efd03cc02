"""Heap tables: unordered row storage over simulated pages.

A :class:`HeapTable` owns a :class:`~repro.engine.page.PageManager` and
exposes insert/delete/update by :class:`~repro.engine.row.RowId`, plus a
counted full scan.  Constraint checking and index maintenance live above
this layer (in :mod:`repro.engine.database`); the heap is purely physical.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.engine.page import MAX_ROW_BYTES, IOCounters, PageManager, _slot_hash
from repro.engine.row import RowId
from repro.engine.schema import TableSchema
from repro.errors import PageOverflowError, StorageError


class HeapTable:
    """Unordered heap of rows with page-level I/O accounting.

    Parameters
    ----------
    schema:
        The table's schema; rows are validated against it on insert.
    counters:
        Optional shared I/O counters (the database passes one set shared by
        all tables so a query's total I/O is a single number).
    """

    def __init__(
        self, schema: TableSchema, counters: Optional[IOCounters] = None
    ) -> None:
        self.schema = schema
        self.pages = PageManager(counters)
        self._row_count = 0

    # -- size ---------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        """Number of live rows."""
        return self._row_count

    @property
    def page_count(self) -> int:
        """Number of allocated pages (the table's footprint on disk)."""
        return self.pages.page_count

    # -- DML ------------------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> RowId:
        """Validate, coerce and store one row; returns its new RowId.

        All failure modes (validation, overflow, a surfaced write fault)
        are checked *before* any page mutates, so a raising insert leaves
        the heap image untouched.  Reserved tombstones are not reused.
        """
        row = self.schema.validate_row(values)
        row_bytes = self.schema.row_size(row)
        if row_bytes > MAX_ROW_BYTES:
            raise PageOverflowError(
                f"row of {row_bytes} bytes exceeds page capacity"
            )
        page = self.pages.page_for_insert(row_bytes)
        self.pages.touch_write()
        slot_no = page.insert(row, row_bytes)
        self.pages.wrote_row()
        self._row_count += 1
        return RowId(page.page_id, slot_no)

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> List[RowId]:
        """Bulk insert; returns the RowIds in input order."""
        return [self.insert(row) for row in rows]

    def fetch(self, row_id: RowId) -> Tuple[Any, ...]:
        """Fetch one row by RowId, counting one page read."""
        page = self.pages.read_page(row_id.page_id)
        row = page.slots[row_id.slot_no]
        if row is None:
            raise StorageError(f"{row_id} is deleted")
        self.pages.read_row()
        return row

    def fetch_if_live(self, row_id: RowId) -> Optional[Tuple[Any, ...]]:
        """Fetch a row, or None when the slot is tombstoned (counted read)."""
        page = self.pages.read_page(row_id.page_id)
        row = page.slots[row_id.slot_no]
        if row is not None:
            self.pages.read_row()
        return row

    def delete(self, row_id: RowId) -> Tuple[Any, ...]:
        """Delete a row, returning its last image (for undo / index upkeep).

        The write is charged (and may fault) before the slot is
        tombstoned — fail-before-mutate.
        """
        page = self.pages.read_page(row_id.page_id)
        row = page.slots[row_id.slot_no]
        if row is None:
            raise StorageError(f"{row_id} already deleted")
        self.pages.touch_write()
        page.delete(row_id.slot_no)
        self._row_count -= 1
        return row

    def update(
        self, row_id: RowId, values: Sequence[Any]
    ) -> Tuple[RowId, Tuple[Any, ...]]:
        """Replace a row's image.

        Returns ``(new_row_id, old_image)``.  When the new image does not
        fit in place the row moves (delete + insert), exactly as a
        disk-based heap would forward it — never into a reserved
        tombstone.
        """
        new_row = self.schema.validate_row(values)
        row_bytes = self.schema.row_size(new_row)
        if row_bytes > MAX_ROW_BYTES:
            raise PageOverflowError(
                f"row of {row_bytes} bytes exceeds page capacity"
            )
        page = self.pages.read_page(row_id.page_id)
        old_row = page.slots[row_id.slot_no]
        if old_row is None:
            raise StorageError(f"{row_id} is deleted")
        if page.can_update(row_id.slot_no, row_bytes):
            self.pages.touch_write()
            page.update(row_id.slot_no, new_row, row_bytes)
            return row_id, old_row
        # Forwarding: the row moves.  Both logical writes (source page,
        # target page) are charged up front so a surfaced write fault
        # raises before either page mutates; only then are the delete and
        # the placement applied, which cannot fail.
        target = self.pages.page_for_insert(row_bytes)
        self.pages.touch_write(2)
        page.delete(row_id.slot_no)
        slot_no = target.insert(new_row, row_bytes)
        self.pages.wrote_row()
        return RowId(target.page_id, slot_no), old_row

    # -- placement at a known rid (redo replay and undo) ---------------------

    def place_at(self, row_id: RowId, values: Sequence[Any]) -> None:
        """Force one row into an exact slot: the one a WAL record assigned
        it (redo replay) or the one it held before an aborted
        transaction deleted it (undo).

        Rids must not move: replay lands every row at its logged position,
        an undone DELETE's compensation included, and a snapshot reader
        finds a row's versions by rid.  Free placement via :meth:`insert`
        could diverge whenever the page image differs from the one the
        original run chose against.  The tombstone an undo fills is
        reserved, so nothing else can have taken it.
        Pages are allocated up to the target, slot gaps are padded with
        0-byte tombstones, and the incremental XOR checksum is maintained
        so :meth:`~repro.engine.page.Page.verify` holds afterwards.  No
        row is 0 bytes, so a 0-byte tombstone is such a gap — left by a
        transaction still open when recovery finished, whose dropped
        records never placed their rows — and the row takes it, charged
        as an append would be.
        """
        row = self.schema.validate_row(values)
        self.pages.touch_write()
        self._place(row_id, row)

    def _place(self, row_id: RowId, row: Tuple[Any, ...]) -> None:
        """:meth:`place_at` once its page write is charged."""
        row_bytes = self.schema.row_size(row)
        while self.pages.page_count <= row_id.page_id:
            self.pages.allocate()
        page = self.pages.pages[row_id.page_id]
        slot_no = row_id.slot_no
        if slot_no < len(page.slots):
            if page.slots[slot_no] is not None:
                raise StorageError(
                    f"cannot place a row at occupied {row_id}"
                )
            if page.slot_sizes[slot_no] == 0:
                page.slot_sizes[slot_no] = row_bytes
                page.used_bytes += row_bytes
            elif page.slot_sizes[slot_no] < row_bytes:
                raise StorageError(
                    f"row does not fit the tombstone at {row_id}"
                )
            page.checksum ^= _slot_hash(slot_no, None)
            page.checksum ^= _slot_hash(slot_no, row)
            # Mirror Page.insert's tombstone reuse: the slot keeps its
            # original size (no within-page compaction), so the replayed
            # page image stays bit-identical to the original run's.
            page.slots[slot_no] = row
        else:
            while len(page.slots) < slot_no:
                gap = len(page.slots)
                page.slots.append(None)
                page.slot_sizes.append(0)
                page.checksum ^= _slot_hash(gap, None)
            page.slots.append(row)
            page.slot_sizes.append(row_bytes)
            page.used_bytes += row_bytes
            page.checksum ^= _slot_hash(slot_no, row)
        self.pages.wrote_row()
        self._row_count += 1
        # Mirror page_for_insert: the hint follows the last placement.
        if row_id.page_id > self.pages._insert_hint:
            self.pages._insert_hint = row_id.page_id

    def apply_update(
        self, old_rid: RowId, new_rid: RowId, values: Sequence[Any]
    ) -> Tuple[Any, ...]:
        """Update the row at ``old_rid`` and leave it at ``new_rid``: redo
        of a logged update, or undo of one (the row goes back to its
        pre-image rid, a reserved tombstone if the update forwarded it).

        Returns the replaced image (for index maintenance).  With equal
        rids the update is in place; otherwise the old slot is deleted and
        the image forced at ``new_rid``, both writes charged first so a
        surfaced write fault leaves the heap untouched.
        """
        row = self.schema.validate_row(values)
        row_bytes = self.schema.row_size(row)
        page = self.pages.read_page(old_rid.page_id)
        old_row = page.slots[old_rid.slot_no]
        if old_row is None:
            raise StorageError(f"no row to update at {old_rid}")
        if old_rid == new_rid and page.can_update(old_rid.slot_no, row_bytes):
            self.pages.touch_write()
            page.update(old_rid.slot_no, row, row_bytes)
            return old_row
        self.pages.touch_write(2)
        page.delete(old_rid.slot_no)
        self._row_count -= 1
        self._place(new_rid, row)
        return old_row

    # -- scans -----------------------------------------------------------------

    def scan(self) -> Iterator[Tuple[RowId, Tuple[Any, ...]]]:
        """Full scan in physical order, counting each page read once."""
        for page_id in range(self.pages.page_count):
            page = self.pages.read_page(page_id)
            for slot_no, row in enumerate(page.slots):
                if row is not None:
                    self.pages.read_row()
                    yield RowId(page_id, slot_no), row

    def scan_rows(self) -> Iterator[Tuple[Any, ...]]:
        """Full scan yielding just the row tuples."""
        for _, row in self.scan():
            yield row

    def truncate(self) -> None:
        """Drop all rows and pages (DDL-level operation; not undoable)."""
        counters = self.pages.counters
        self.pages = PageManager(counters)
        self._row_count = 0

    def __repr__(self) -> str:
        return (
            f"HeapTable({self.schema.name}, rows={self._row_count}, "
            f"pages={self.page_count})"
        )

"""Simulated disk pages and page-level I/O accounting.

The engine does not persist bytes; it *models* a paged storage layout so the
optimizer's cost estimates ("pages scanned") can be validated against real
counters.  A :class:`Page` holds row tuples up to a byte budget computed from
the schema's :meth:`~repro.engine.schema.TableSchema.row_size`.  A
:class:`PageManager` tracks every logical read and write so benchmarks can
report deterministic, machine-independent I/O numbers.

Resilience: every page maintains an incremental XOR checksum over its
slots (O(1) per mutation).  When a
:class:`~repro.resilience.faults.FaultInjector` is attached, reads verify
the checksum and transient faults / detected torn reads are retried with
bounded exponential backoff on the injector's virtual clock; without an
injector the read path is exactly the two-line fast path it always was.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import PageCorruptionError, PageOverflowError, TransientIOError

PAGE_SIZE = 4096
_PAGE_HEADER = 32

#: Largest row a page can hold (checked before any write is attempted).
MAX_ROW_BYTES = PAGE_SIZE - _PAGE_HEADER


def _slot_hash(slot_no: int, value: Any) -> int:
    return hash((slot_no, value))


class Page:
    """One fixed-size page holding a list of row slots.

    A slot is either a row tuple or ``None`` (a tombstone left by DELETE;
    the slot is reused by a later INSERT when the row fits).  ``reserved``
    holds the slots of rows an open transaction deleted or updated: a
    reserved tombstone is never reused, because that transaction's
    rollback puts the row back there.
    """

    __slots__ = (
        "page_id", "slots", "used_bytes", "slot_sizes", "checksum", "reserved"
    )

    def __init__(self, page_id: int) -> None:
        self.page_id = page_id
        self.slots: List[Optional[Tuple[Any, ...]]] = []
        self.slot_sizes: List[int] = []
        self.used_bytes = _PAGE_HEADER
        self.checksum = 0
        self.reserved: Set[int] = set()

    @property
    def free_bytes(self) -> int:
        return PAGE_SIZE - self.used_bytes

    @property
    def live_rows(self) -> int:
        return sum(1 for slot in self.slots if slot is not None)

    def _reusable_slot(self, row_bytes: int) -> Optional[int]:
        """The first unreserved tombstone that can hold the row, or None."""
        for slot_no, slot in enumerate(self.slots):
            if (
                slot is None
                and self.slot_sizes[slot_no] >= row_bytes
                and slot_no not in self.reserved
            ):
                return slot_no
        return None

    def can_fit(self, row_bytes: int) -> bool:
        """Room for a row: fresh free space or a reusable tombstone."""
        if row_bytes <= self.free_bytes:
            return True
        return self._reusable_slot(row_bytes) is not None

    def insert(self, row: Tuple[Any, ...], row_bytes: int) -> int:
        """Place a row on this page, returning the slot number.

        Reuses an unreserved tombstone when one can hold the row;
        otherwise appends a new slot.
        """
        if row_bytes > MAX_ROW_BYTES:
            raise PageOverflowError(
                f"row of {row_bytes} bytes exceeds page capacity"
            )
        slot_no = self._reusable_slot(row_bytes)
        if slot_no is not None:
            self.checksum ^= _slot_hash(slot_no, None) ^ _slot_hash(
                slot_no, row
            )
            self.slots[slot_no] = row
            # The slot keeps its original size: the simulated layout
            # does not compact within a page.
            return slot_no
        if row_bytes > self.free_bytes:
            raise PageOverflowError("page full")
        slot_no = len(self.slots)
        self.slots.append(row)
        self.slot_sizes.append(row_bytes)
        self.used_bytes += row_bytes
        self.checksum ^= _slot_hash(slot_no, row)
        return slot_no

    def delete(self, slot_no: int) -> None:
        """Tombstone a slot.  The space remains allocated until reuse."""
        self.checksum ^= _slot_hash(slot_no, self.slots[slot_no]) ^ _slot_hash(
            slot_no, None
        )
        self.slots[slot_no] = None

    def can_update(self, slot_no: int, row_bytes: int) -> bool:
        """Whether :meth:`update` would succeed in place for this image."""
        if row_bytes <= self.slot_sizes[slot_no]:
            return True
        return row_bytes - self.slot_sizes[slot_no] <= self.free_bytes

    def update(self, slot_no: int, row: Tuple[Any, ...], row_bytes: int) -> bool:
        """Update a slot in place if the new image fits; returns success.

        When the new image is larger than the slot, the caller must delete
        here and re-insert elsewhere (the classic forwarding case, which we
        model simply as delete+insert).
        """
        if not self.can_update(slot_no, row_bytes):
            return False
        self.checksum ^= _slot_hash(slot_no, self.slots[slot_no]) ^ _slot_hash(
            slot_no, row
        )
        if row_bytes > self.slot_sizes[slot_no]:
            self.used_bytes += row_bytes - self.slot_sizes[slot_no]
            self.slot_sizes[slot_no] = row_bytes
        self.slots[slot_no] = row
        return True

    # -- integrity ----------------------------------------------------------

    def compute_checksum(self) -> int:
        """Recompute the checksum from the slot contents."""
        checksum = 0
        for slot_no, slot in enumerate(self.slots):
            checksum ^= _slot_hash(slot_no, slot)
        return checksum

    def verify(self) -> None:
        """Raise :class:`~repro.errors.PageCorruptionError` on mismatch."""
        if self.compute_checksum() != self.checksum:
            raise PageCorruptionError(
                f"checksum mismatch on page {self.page_id}",
                page_id=self.page_id,
            )

    def __repr__(self) -> str:
        return (
            f"Page(id={self.page_id}, rows={self.live_rows}, "
            f"used={self.used_bytes}/{PAGE_SIZE})"
        )


class IOCounters:
    """Mutable counters of logical page I/O, shared via the page manager."""

    __slots__ = ("page_reads", "page_writes", "rows_read", "rows_written")

    def __init__(self) -> None:
        self.page_reads = 0
        self.page_writes = 0
        self.rows_read = 0
        self.rows_written = 0

    def reset(self) -> None:
        self.page_reads = 0
        self.page_writes = 0
        self.rows_read = 0
        self.rows_written = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "rows_read": self.rows_read,
            "rows_written": self.rows_written,
        }

    def __repr__(self) -> str:
        return (
            f"IOCounters(reads={self.page_reads}, writes={self.page_writes}, "
            f"rows_read={self.rows_read}, rows_written={self.rows_written})"
        )


class PageManager:
    """Owns the pages of one table and counts every logical access.

    The manager is deliberately simple: pages are append-ordered and a
    free-space hint (the id of the last page known to have room) avoids
    quadratic insert behaviour without simulating a full FSM.

    A :class:`~repro.resilience.faults.FaultInjector` attached as
    ``fault_injector`` turns the counted read/write paths into
    verify-and-retry state machines; ``None`` (the default) keeps them on
    the original fast path.

    ``version`` is the table's write version: it moves on every
    :meth:`touch_write` (which every slot mutation charges first), every
    :meth:`allocate` and every :meth:`replace_pages`, so a reader that
    saw one value has seen every page exactly as it still is while the
    value holds.
    """

    def __init__(self, counters: Optional[IOCounters] = None) -> None:
        self.pages: List[Page] = []
        self.counters = counters if counters is not None else IOCounters()
        self.fault_injector = None
        self.version = 0
        self._insert_hint = 0

    @property
    def page_count(self) -> int:
        return len(self.pages)

    def allocate(self) -> Page:
        self.version += 1
        page = Page(len(self.pages))
        self.pages.append(page)
        return page

    def replace_pages(self, pages: List[Page], insert_hint: int) -> None:
        """Swap in a whole page list (a checkpoint image being restored)."""
        self.version += 1
        self.pages = pages
        self._insert_hint = min(insert_hint, max(0, len(pages) - 1))

    def page_for_insert(self, row_bytes: int) -> Page:
        """Find (or allocate) a page with room for ``row_bytes``."""
        for page_id in range(self._insert_hint, len(self.pages)):
            if self.pages[page_id].can_fit(row_bytes):
                self._insert_hint = page_id
                return self.pages[page_id]
        page = self.allocate()
        self._insert_hint = page.page_id
        return page

    # -- counted access -----------------------------------------------------

    def read_page(self, page_id: int) -> Page:
        """Read a page, counting one logical page read.

        With a fault injector attached, the read verifies the page
        checksum and retries transient faults / torn reads with backoff;
        a persistent fault surfaces as the typed storage error.
        """
        self.counters.page_reads += 1
        page = self.pages[page_id]
        injector = self.fault_injector
        if injector is None:
            return page
        return self._read_with_retry(page, injector)

    def _read_with_retry(self, page: Page, injector) -> Page:
        """Verify + retry state machine for one faulted page read.

        read → inject? → verify checksum → (mismatch: heal the buffered
        copy, back off, re-read) / (transient: back off, re-read) →
        after ``retry.max_attempts`` attempts the last typed error
        surfaces.  Each physical re-read is charged as a page read.
        """
        last_error: Optional[Exception] = None
        for attempt in range(injector.retry.max_attempts):
            if attempt:
                injector.retry.delay(attempt - 1)
                self.counters.page_reads += 1
            kind = injector.decide("page_read")
            if kind == "transient":
                last_error = TransientIOError(
                    f"transient I/O error reading page {page.page_id} "
                    f"(attempt {attempt + 1})"
                )
                continue
            if kind == "corrupt":
                injector.corrupt_page(page)
            try:
                page.verify()
            except PageCorruptionError as error:
                # Treat the damage as a torn buffered copy: the simulated
                # disk image is intact, so heal and re-read.
                injector.heal_page(page)
                last_error = error
                continue
            return page
        assert last_error is not None
        raise last_error

    def touch_write(self, count: int = 1) -> None:
        """Record ``count`` logical page writes.

        With a fault injector attached each logical write may fail
        transiently; it is retried with backoff and raises
        :class:`~repro.errors.TransientIOError` when the retry budget is
        exhausted.  The storage layer orders every ``touch_write``*before*
        the page mutation it accounts for, so a surfaced write fault
        leaves the page image untouched (fail-before-mutate).  It moves
        :attr:`version` whether or not the write then faults.
        """
        self.version += 1
        self.counters.page_writes += count
        injector = self.fault_injector
        if injector is not None:
            self._write_with_retry(injector)

    def _write_with_retry(self, injector) -> None:
        last_error: Optional[Exception] = None
        for attempt in range(injector.retry.max_attempts):
            if attempt:
                injector.retry.delay(attempt - 1)
            kind = injector.decide("page_write")
            if kind is None:
                return
            # A "corrupt" on the write path models a failed write-verify:
            # nothing was persisted, so it retries exactly like a
            # transient fault and never damages the page image.
            last_error = TransientIOError(
                f"I/O error writing page ({kind}, attempt {attempt + 1})"
            )
        assert last_error is not None
        raise last_error

    def read_row(self, count: int = 1) -> None:
        self.counters.rows_read += count

    def wrote_row(self, count: int = 1) -> None:
        self.counters.rows_written += count

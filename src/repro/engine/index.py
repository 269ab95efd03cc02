"""B-tree secondary indexes.

The index keeps a sorted array of ``(key, RowId)`` entries (the classic
sorted-run emulation of a B+-tree) and *models* B-tree I/O: a probe charges
the tree height in page reads, and a range scan additionally charges one
read per leaf page crossed.  That keeps the executor's "pages read" numbers
faithful to what a disk-based engine would do, which is what the optimizer's
cost model predicts.

Keys may be composite.  Rows with a NULL in any key column are not indexed
(equality and range predicates never match NULL, so index results are still
exact for the predicates the optimizer routes here).
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.page import IOCounters
from repro.engine.row import RowId
from repro.engine.schema import TableSchema
from repro.errors import IndexCorruptionError, StorageError, TransientIOError

ENTRIES_PER_LEAF = 256
INTERNAL_FANOUT = 256


def _entry_hash(key: Tuple[Any, ...], row_id: RowId) -> int:
    return hash((key, row_id))


class FetchBuffer:
    """The one-page buffer an index range's row fetches go through.

    A fetch reads its heap page (one ``page_reads``) unless the fetch
    before it was on the same page.  Over a clustered index this makes a
    range scan touch each data page once (the behaviour the cost model
    prices via the index's cluster ratio); over an unclustered one it
    degrades to a read per row, as on a real system.  :meth:`fetch` is
    the rule for one fetch and :meth:`fetch_run` the same rule over an
    array of page ids: ``1 + count_nonzero(diff(page_ids))`` reads for a
    run that starts off the buffered page.
    """

    __slots__ = ("counters", "page_id")

    def __init__(self, counters: IOCounters) -> None:
        self.counters = counters
        self.page_id: Optional[int] = None

    def fetch(self, page_id: int) -> None:
        if page_id != self.page_id:
            self.counters.page_reads += 1
            self.page_id = page_id

    def fetch_run(self, page_ids: np.ndarray) -> None:
        """:meth:`fetch` each page id in turn."""
        if len(page_ids) < 2:
            for page_id in page_ids.tolist():
                self.fetch(page_id)
            return
        self.counters.page_reads += int(
            np.count_nonzero(page_ids[1:] != page_ids[:-1])
        ) + (int(page_ids[0]) != self.page_id)
        self.page_id = int(page_ids[-1])


class _KeyWrap:
    """Total-order wrapper so heterogeneous key columns compare safely.

    Within one index all keys in a given column position share a type, so
    plain tuple comparison would suffice; the wrapper exists to give
    deterministic behaviour for boolean/int mixes produced by SQL coercion.
    """

    __slots__ = ("key",)

    def __init__(self, key: Tuple[Any, ...]) -> None:
        self.key = key

    def __lt__(self, other: "_KeyWrap") -> bool:
        return self.key < other.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _KeyWrap) and self.key == other.key


class BTreeIndex:
    """A secondary index over one or more columns of a heap table.

    Parameters
    ----------
    name:
        Index name (unique within the catalog).
    table_schema:
        Schema of the indexed table.
    column_names:
        The key columns, in significance order.
    unique:
        When True, inserting a duplicate full key raises
        :class:`~repro.errors.StorageError` (used to back PK / UNIQUE
        constraints).
    counters:
        Shared I/O counters; probes and scans are charged here.
    """

    def __init__(
        self,
        name: str,
        table_schema: TableSchema,
        column_names: Sequence[str],
        unique: bool = False,
        counters: Optional[IOCounters] = None,
    ) -> None:
        self.name = name.lower()
        self.table_name = table_schema.name
        self.column_names = [c.lower() for c in column_names]
        self.key_positions = [table_schema.position(c) for c in self.column_names]
        self.unique = unique
        self.counters = counters if counters is not None else IOCounters()
        # Parallel arrays: sorted keys and their RowIds.  Duplicate keys are
        # adjacent; uniqueness (when requested) is enforced on insert.
        self._keys: List[Tuple[Any, ...]] = []
        self._rids: List[RowId] = []
        self._cluster_ratio_cache: Optional[float] = None
        # Incremental XOR checksum over (key, rid) entries; maintained O(1)
        # per mutation, recomputed for verification only under fault
        # injection.  A verify failure quarantines the index until a
        # rebuild from the heap (Database.rebuild_index).
        self.checksum = 0
        self.quarantined = False
        # Called when a probe quarantines the index (the catalog's epoch
        # bump, so cached plans stop scanning it).
        self.on_quarantine: Optional[Callable[[], None]] = None
        self.fault_injector = None

    # -- geometry ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def entry_rids(self) -> List[RowId]:
        """Every entry's RowId in key order: the index's own list, which
        insert and delete change in place (read it, never write it)."""
        return self._rids

    @property
    def leaf_pages(self) -> int:
        """Number of simulated leaf pages."""
        return max(1, math.ceil(len(self._keys) / ENTRIES_PER_LEAF))

    def cluster_ratio(self) -> float:
        """Fraction of adjacent entries whose rows share a heap page.

        1.0 means the heap is stored in index order (a clustered index):
        a range scan's row fetches hit each data page once.  0.0 means
        every fetch lands on a different page.  The optimizer's cost model
        uses this to price index-scan data fetches; the value is cached
        and recomputed after maintenance.
        """
        if self._cluster_ratio_cache is None:
            if len(self._rids) < 2:
                self._cluster_ratio_cache = 1.0
            else:
                same_page = sum(
                    1
                    for previous, current in zip(self._rids, self._rids[1:])
                    if previous.page_id == current.page_id
                )
                self._cluster_ratio_cache = same_page / (len(self._rids) - 1)
        return self._cluster_ratio_cache

    @property
    def height(self) -> int:
        """Simulated tree height (levels above the leaves, plus the leaf)."""
        leaves = self.leaf_pages
        if leaves <= 1:
            return 1
        return 1 + max(1, math.ceil(math.log(leaves, INTERNAL_FANOUT)))

    # -- key extraction ------------------------------------------------------

    def key_of(self, row: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
        """Extract the index key from a full row; None if any part is NULL."""
        key = tuple(row[position] for position in self.key_positions)
        if any(part is None for part in key):
            return None
        return key

    # -- maintenance -----------------------------------------------------------

    def insert(self, row: Sequence[Any], row_id: RowId) -> None:
        """Index one row.  Rows with NULL key parts are skipped."""
        key = self.key_of(row)
        if key is None:
            return
        at = bisect.bisect_left(self._keys, key)
        if self.unique and at < len(self._keys) and self._keys[at] == key:
            raise StorageError(
                f"duplicate key {key!r} in unique index {self.name!r}"
            )
        self._keys.insert(at, key)
        self._rids.insert(at, row_id)
        self.checksum ^= _entry_hash(key, row_id)
        self._cluster_ratio_cache = None
        self.counters.page_writes += 1

    def delete(self, row: Sequence[Any], row_id: RowId) -> None:
        """Remove one row's entry (no-op for NULL-keyed rows)."""
        key = self.key_of(row)
        if key is None:
            return
        at = bisect.bisect_left(self._keys, key)
        while at < len(self._keys) and self._keys[at] == key:
            if self._rids[at] == row_id:
                del self._keys[at]
                del self._rids[at]
                self.checksum ^= _entry_hash(key, row_id)
                self._cluster_ratio_cache = None
                self.counters.page_writes += 1
                return
            at += 1
        raise StorageError(
            f"index {self.name!r} has no entry for key={key!r} rid={row_id}"
        )

    def update(
        self,
        old_row: Sequence[Any],
        old_id: RowId,
        new_row: Sequence[Any],
        new_id: RowId,
    ) -> None:
        """Maintain the index across an UPDATE (delete old, insert new)."""
        old_key = self.key_of(old_row)
        new_key = self.key_of(new_row)
        if old_key == new_key and old_id == new_id:
            return
        if old_key is not None:
            self.delete(old_row, old_id)
        if new_key is not None:
            self.insert(new_row, new_id)

    # -- integrity ----------------------------------------------------------

    def compute_checksum(self) -> int:
        """Recompute the entry checksum from scratch."""
        checksum = 0
        for key, row_id in zip(self._keys, self._rids):
            checksum ^= _entry_hash(key, row_id)
        return checksum

    def verify(self) -> None:
        """Raise :class:`~repro.errors.IndexCorruptionError` on mismatch."""
        if self.compute_checksum() != self.checksum:
            raise IndexCorruptionError(
                f"checksum mismatch in index {self.name!r}",
                index_name=self.name,
            )

    def _pre_probe(self) -> None:
        """Gate every descent: quarantine check plus fault injection.

        Transient faults are retried with backoff (each retry charges a
        fresh descent).  Detected corruption is *persistent* for an index
        — the structure is quarantined and every later probe raises until
        :meth:`repro.engine.database.Database.rebuild_index` runs.
        """
        if self.quarantined:
            raise IndexCorruptionError(
                f"index {self.name!r} is quarantined pending rebuild",
                index_name=self.name,
            )
        injector = self.fault_injector
        if injector is None:
            return
        last_error: Optional[Exception] = None
        for attempt in range(injector.retry.max_attempts):
            if attempt:
                injector.retry.delay(attempt - 1)
                self.counters.page_reads += self.height
            kind = injector.decide("index_probe")
            if kind == "transient":
                last_error = TransientIOError(
                    f"transient I/O error probing index {self.name!r} "
                    f"(attempt {attempt + 1})"
                )
                continue
            if kind == "corrupt":
                injector.corrupt_index(self)
            try:
                self.verify()
            except IndexCorruptionError:
                self.quarantined = True
                if self.on_quarantine is not None:
                    self.on_quarantine()
                raise
            return
        assert last_error is not None
        raise last_error

    # -- probes ------------------------------------------------------------------

    def _charge_probe(self) -> None:
        self._pre_probe()
        self.counters.page_reads += self.height

    def _charge_leaves(self, entries: int) -> None:
        if entries > ENTRIES_PER_LEAF:
            extra_leaves = math.ceil(entries / ENTRIES_PER_LEAF) - 1
            self.counters.page_reads += extra_leaves

    def search(self, key: Sequence[Any]) -> List[RowId]:
        """Equality probe on the full key; charges one root-to-leaf descent."""
        probe = tuple(key)
        self._charge_probe()
        lo = bisect.bisect_left(self._keys, probe)
        hi = bisect.bisect_right(self._keys, probe)
        self._charge_leaves(hi - lo)
        return self._rids[lo:hi]

    def range_bounds(
        self,
        low: Optional[Sequence[Any]] = None,
        high: Optional[Sequence[Any]] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Tuple[int, int]:
        """Probe for the keys in ``[low, high]`` (bounds optional /
        exclusive-able): their entries are ``lo:hi`` of the sorted arrays.
        Charges one descent plus the extra leaves the range crosses.

        Bounds may be prefixes of a composite key; a prefix bound behaves
        like the usual B-tree prefix semantics (all extensions of the
        prefix fall inside the bound when inclusive).
        """
        self._charge_probe()
        if low is None:
            lo = 0
        else:
            probe = tuple(low)
            if low_inclusive:
                lo = bisect.bisect_left(self._keys, probe)
            else:
                # For a prefix bound, "strictly greater" must skip every key
                # extending the prefix, so pad conceptually with +infinity:
                # bisect_right on the prefix achieves exactly that for full
                # keys, and for prefixes we advance past all extensions.
                lo = self._bisect_after_prefix(probe)
        if high is None:
            hi = len(self._keys)
        else:
            probe = tuple(high)
            if high_inclusive:
                hi = self._bisect_after_prefix(probe)
            else:
                hi = bisect.bisect_left(self._keys, probe)
        self._charge_leaves(max(0, hi - lo))
        return lo, hi

    def range_scan(
        self,
        low: Optional[Sequence[Any]] = None,
        high: Optional[Sequence[Any]] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Tuple[Tuple[Any, ...], RowId]]:
        """``(key, RowId)`` for each entry of :meth:`range_bounds`' range;
        the probe is charged when the first entry is pulled."""
        lo, hi = self.range_bounds(low, high, low_inclusive, high_inclusive)
        for at in range(lo, hi):
            yield self._keys[at], self._rids[at]

    def _bisect_after_prefix(self, prefix: Tuple[Any, ...]) -> int:
        """Index just past every key whose head equals ``prefix``."""
        if len(prefix) >= len(self.key_positions):
            return bisect.bisect_right(self._keys, prefix)
        lo = bisect.bisect_left(self._keys, prefix)
        at = lo
        while at < len(self._keys) and self._keys[at][: len(prefix)] == prefix:
            at += 1
        return at

    def min_key(self) -> Optional[Tuple[Any, ...]]:
        """Smallest key, or None when the index is empty (one probe)."""
        if not self._keys:
            return None
        self._charge_probe()
        return self._keys[0]

    def max_key(self) -> Optional[Tuple[Any, ...]]:
        """Largest key, or None when the index is empty (one probe)."""
        if not self._keys:
            return None
        self._charge_probe()
        return self._keys[-1]

    def rebuild(self, entries: Sequence[Tuple[Tuple[Any, ...], RowId]]) -> None:
        """Bulk-load the index from (key, RowId) pairs (e.g. CREATE INDEX)."""
        ordered = sorted(entries, key=lambda entry: entry[0])
        if self.unique:
            for previous, current in zip(ordered, ordered[1:]):
                if previous[0] == current[0]:
                    raise StorageError(
                        f"duplicate key {current[0]!r} while building "
                        f"unique index {self.name!r}"
                    )
        self._keys = [key for key, _ in ordered]
        self._rids = [rid for _, rid in ordered]
        self.checksum = self.compute_checksum()
        self.quarantined = False
        self._cluster_ratio_cache = None
        self.counters.page_writes += self.leaf_pages

    def load_entries(
        self,
        keys: Sequence[Tuple[Any, ...]],
        rids: Sequence[RowId],
        quarantined: bool = False,
    ) -> None:
        """Install already-sorted entries from a checkpoint image.

        Unlike :meth:`rebuild` this is a verbatim restore — order,
        uniqueness, and the quarantine flag are taken as recorded (the
        recovery path cross-checks against the heap afterwards and falls
        back to a rebuild on mismatch).  The in-memory checksum is
        recomputed because it is process-local.
        """
        if len(keys) != len(rids):
            raise StorageError(
                f"index image for {self.name!r} has {len(keys)} keys but "
                f"{len(rids)} row ids"
            )
        self._keys = [tuple(key) for key in keys]
        self._rids = list(rids)
        self.checksum = self.compute_checksum()
        self.quarantined = quarantined
        self._cluster_ratio_cache = None

    def __repr__(self) -> str:
        uniq = "unique " if self.unique else ""
        return (
            f"BTreeIndex({self.name}: {uniq}{self.table_name}"
            f"({', '.join(self.column_names)}), entries={len(self)})"
        )

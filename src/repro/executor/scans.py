"""Scan operators: sequential and index scans (row and batched forms).

Both forms read the same rows through the same counters, so page-read and
row-read accounting is identical.  The row forms interpret the
pushed-down predicate per row (the oracle); the batched forms wrap
each chunk of fetched rows in a :class:`~repro.executor.batch.RowBatch`
backed by the row tuples, run the predicate as a vector kernel over the
columns it reads, and emit the survivors (the production executor).

The batched sequential scan with no snapshot and no LIMIT quota reads
its chunks from a *table image*: the chunks of the last full scan, whose
columns are transposed and promoted once (:class:`~repro.executor.
vecbatch.ColumnImage`) and reused while the table's write version
(:attr:`~repro.engine.page.PageManager.version`) and page count hold.  A
hit still reads every page in order and charges its rows before each
chunk, so page and row counters, guard trips and a fault injector's
decisions are those of a fresh walk.  An image is published only by a
walk that ran to the end with the version unmoved.  Snapshot reads and
LIMIT-quota sequential scans walk storage every time.

The batched index scan with no snapshot, while the table's image is
current, takes its range as one slice of the index's entries and
gathers the range's rows from the image, column by column, at each
entry's image position; each chunk is charged through the one-page
buffer (:class:`~repro.engine.index.FetchBuffer`) exactly as the row
scan's fetches up to it are.  Otherwise it re-cuts the row scan's rows
into chunks.  An index scan never builds or publishes an image.

Every batched path emits only the columns the plan reads from the scan
(``read_columns``, recorded with the plan's compiled expressions; see
:func:`_layout`): image chunks, image gathers, one-shot tuples and the
row scan's re-cut.  The row forms, and DML location through
:func:`scan_rids`, read whole rows.

Scans read as of the snapshot the thread's statement installed
(``database.concurrency.current_snapshot()``), or the heap when none is.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.engine.database import Database
from repro.engine.index import BTreeIndex, FetchBuffer
from repro.engine.page import PageManager
from repro.engine.row import RowId
from repro.executor.batch import RowBatch, gather
from repro.executor.vecbatch import ColumnImage
from repro.expr.eval import evaluate
from repro.expr.vector import select_rows
from repro.optimizer.physical import IndexScan, SeqScan
from repro.sql import ast

RowDict = Dict[str, Any]


class ScanQuota:
    """A shared upper bound on rows still needed from upstream.

    Created by ``LIMIT`` and threaded down through the streaming,
    at-most-one-output-per-input operators (filter/project/extend/
    distinct/union) to the scans, which then never fetch more than
    ``remaining`` rows per chunk.  Because every operator on the way up
    emits at most one row per fetched row, a scan that fetches
    ``min(batch_size, remaining)`` can never overshoot the row-at-a-time
    pipeline's stopping point — page-read and row-read accounting under
    LIMIT is therefore bit-identical to the oracle.  Blocking operators
    (sorts, joins, grouping) do not forward the quota: they materialize
    their input fully in both pipelines, so there is nothing to clamp.
    """

    __slots__ = ("remaining",)

    def __init__(self, remaining: int) -> None:
        self.remaining = remaining


def qualified_row(
    binding: str, column_names: Tuple[str, ...], row: Tuple[Any, ...]
) -> RowDict:
    """Materialize a storage row as a binding-qualified row dict."""
    return {
        f"{binding}.{name}": value for name, value in zip(column_names, row)
    }


#: Rows between guard boundary checks inside a scan.  The scan tick is
#: what catches a filter-everything scan (no rows ever reach the top of
#: the plan, so the executor's result-row accounting never fires).
GUARD_STRIDE = 64


def scan_rids(
    database: Database, node: "SeqScan | IndexScan"
) -> Iterator[Tuple[RowId, Tuple[Any, ...]]]:
    """The ``(rid, image)`` pairs a scan reads before its filter, as of
    this thread's snapshot: the one row source under both scan kinds and
    under DML (:func:`repro.dml.locate`)."""
    if isinstance(node, IndexScan):
        return _index_rows(database, node)
    table = database.table(node.table_name)
    snapshot = database.concurrency.current_snapshot()
    if snapshot is None:
        return table.scan()
    return database.concurrency.visible_scan(table, snapshot)


def _scan_rows(
    database: Database, node: "SeqScan | IndexScan"
) -> Iterator[Tuple[Any, ...]]:
    """:func:`scan_rids` without the rids, for the query scans."""
    return (row for _rid, row in scan_rids(database, node))


def _guard_ticks(
    rows: Iterator[Tuple[Any, ...]], guard: Any, stride: int = GUARD_STRIDE
) -> Iterator[Tuple[Any, ...]]:
    """Run a guard boundary every ``stride`` rows pulled from storage."""
    pending = 0
    for row in rows:
        pending += 1
        if pending >= stride:
            guard.tick(pending)
            pending = 0
        yield row
    if pending:
        guard.tick(pending)


def run_seq_scan(
    database: Database,
    node: SeqScan,
    guard: Any = None,
) -> Iterator[RowDict]:
    table = database.table(node.table_name)
    names = tuple(table.schema.column_names())
    source = _scan_rows(database, node)
    if guard is not None:
        source = _guard_ticks(source, guard)
    predicate = node.predicate
    if predicate is None:
        for row in source:
            yield qualified_row(node.binding, names, row)
    else:
        for row in source:
            out = qualified_row(node.binding, names, row)
            if evaluate(predicate, out) is True:
                yield out


def _index_rows(
    database: Database, node: IndexScan
) -> Iterator[Tuple[RowId, Tuple[Any, ...]]]:
    """Range scan the index and fetch each RID's storage row through the
    one-page buffer (:class:`~repro.engine.index.FetchBuffer`), yielding
    ``(rid, row)`` in index order; a tombstoned slot is charged but
    skipped.  Under a snapshot the rows are the snapshot's."""
    table = database.table(node.table_name)
    index = database.catalog.index(node.index_name)
    snapshot = database.concurrency.current_snapshot()
    if snapshot is not None:
        yield from database.concurrency.visible_index_rows(
            table,
            index,
            _resolve_key(node.low),
            _resolve_key(node.high),
            node.low_inclusive,
            node.high_inclusive,
            snapshot,
        )
        return
    lo, hi = _range(index, node)
    pages = table.pages
    buffer = FetchBuffer(pages.counters)
    rids = index.entry_rids
    for at in range(lo, hi):
        row_id = rids[at]
        buffer.fetch(row_id.page_id)
        row = pages.pages[row_id.page_id].slots[row_id.slot_no]
        if row is None:
            continue
        pages.counters.rows_read += 1
        yield row_id, row


def _range(index: BTreeIndex, node: IndexScan) -> Tuple[int, int]:
    """Probe ``index`` for the node's range: its entries ``lo:hi``."""
    return index.range_bounds(
        _resolve_key(node.low),
        _resolve_key(node.high),
        node.low_inclusive,
        node.high_inclusive,
    )


def run_index_scan(
    database: Database,
    node: IndexScan,
    guard: Any = None,
) -> Iterator[RowDict]:
    """Range scan the index, fetch each RID, apply the residual filter."""
    table = database.table(node.table_name)
    names = tuple(table.schema.column_names())
    source = _scan_rows(database, node)
    if guard is not None:
        source = _guard_ticks(source, guard)
    predicate = node.predicate
    for row in source:
        out = qualified_row(node.binding, names, row)
        if predicate is None or evaluate(predicate, out) is True:
            yield out


def _resolve_key(key):
    """Resolve runtime parameters in an index key at scan start.

    A :class:`~repro.sql.ast.RuntimeParameter` reads its soft constraint's
    *current* value (Section 4.2), so a plan cached before a min/max
    widening still scans the correct, up-to-date range.
    """
    if key is None:
        return None
    return tuple(
        part.current_value() if isinstance(part, ast.RuntimeParameter) else part
        for part in key
    )


# -- batched scans --------------------------------------------------------------


#: A batched scan's output: the qualified names of the columns it emits
#: and each one's position in a storage row.
Layout = Tuple[Tuple[str, ...], Tuple[int, ...]]


def _layout(node: "SeqScan | IndexScan", table: Any) -> Layout:
    """The columns the plan reads from the scan, bare or qualified by its
    binding (``read_columns``, set with its compiled expressions), or
    all of them; kept on the node while its schema and column set hold."""
    keep, schema = node.read_columns, table.schema
    cached = node.layout
    if cached is not None and cached[0] is keep and cached[1] is schema:
        return cached[2]
    names = schema.column_names()
    positions = tuple(
        position
        for position, name in enumerate(names)
        if keep is None or name in keep or f"{node.binding}.{name}" in keep
    )
    layout = (
        tuple(f"{node.binding}.{names[position]}" for position in positions),
        positions,
    )
    node.layout = (keep, schema, layout)
    return layout


#: One scan chunk: fetched row tuples, a table-image chunk, or rows an
#: index scan gathered from a table image.
Chunk = "List[Tuple[Any, ...]] | ColumnImage | RowBatch"


def _quota_chunks(
    source: Iterator[Tuple[Any, ...]],
    batch_size: int,
    quota: Optional[ScanQuota],
) -> Iterator[List[Tuple[Any, ...]]]:
    """Pull ``batch_size`` rows at a time, never more than the LIMIT
    quota still needs — the clamp that keeps page accounting identical
    to the row-at-a-time pipeline."""
    while quota is None or quota.remaining > 0:
        fetch = batch_size if quota is None else min(batch_size, quota.remaining)
        chunk = list(itertools.islice(source, fetch))
        if not chunk:
            return
        yield chunk


def _page_chunks(
    runs: Iterator[List[Tuple[Any, ...]]], batch_size: int
) -> Iterator[List[Tuple[Any, ...]]]:
    """Re-cut page-at-a-time row runs into fixed ``batch_size`` chunks."""
    buffer: List[Tuple[Any, ...]] = []
    for run in runs:
        buffer.extend(run)
        while len(buffer) >= batch_size:
            yield buffer[:batch_size]
            del buffer[:batch_size]
    if buffer:
        yield buffer


#: ``(page_id, live rows)`` for each page a scan reads between two chunks.
PageReads = List[Tuple[int, int]]


class _TableImage:
    """A full heap walk's chunks, each with the page reads that preceded
    it, plus the reads after the last chunk (trailing empty pages).

    An index scan that finds the image current gathers its rows from
    it: from whole-table columns (each the chunks' column joined) at the
    image positions of its index entries.  A column is built on the
    first gather that emits it, an index's positions on its first
    gather; both live as long as the image.
    """

    __slots__ = ("key", "chunks", "tail", "_columns", "_slot_rows", "_entries")

    def __init__(
        self,
        key: Tuple[int, int, int],
        chunks: List[Tuple[PageReads, ColumnImage]],
        tail: PageReads,
    ) -> None:
        self.key = key
        self.chunks = chunks
        self.tail = tail
        self._columns: Dict[int, Tuple[Any, ...]] = {}
        self._slot_rows: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._entries: Dict[str, Tuple[List[RowId], np.ndarray, np.ndarray]] = {}

    def current(self, pages: PageManager) -> bool:
        """Whether ``pages`` still hold exactly the rows the walk read."""
        return self.key[:2] == (pages.version, pages.page_count)

    def columns(self, positions: Tuple[int, ...]) -> List[Tuple[Any, ...]]:
        """Every image row's values at each of ``positions``, one tuple
        per position."""
        built = self._columns
        for position in positions:
            if position not in built:
                built[position] = tuple(
                    itertools.chain.from_iterable(
                        chunk.column(position) for _reads, chunk in self.chunks
                    )
                )
        return [built[position] for position in positions]

    def entries(
        self, pages: PageManager, index: BTreeIndex
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per entry of ``index``, in key order: its page id and its row's
        image position (-1 for a tombstoned slot).  Call only while the
        image is :meth:`current`."""
        rids = index.entry_rids
        cached = self._entries.get(index.name)
        if cached is None or cached[0] is not rids or len(cached[1]) != len(rids):
            if self._slot_rows is None:
                reads = [read for reads, _chunk in self.chunks for read in reads]
                self._slot_rows = _slot_rows(pages, reads + self.tail)
            page_base, slot_rows = self._slot_rows
            pairs = np.fromiter(
                itertools.chain.from_iterable(rids), np.int64, 2 * len(rids)
            ).reshape(-1, 2)
            page_ids = pairs[:, 0]
            cached = (rids, page_ids, slot_rows[page_base[page_ids] + pairs[:, 1]])
            self._entries[index.name] = cached
        return cached[1], cached[2]


def _slot_rows(
    pages: PageManager, reads: PageReads
) -> Tuple[np.ndarray, np.ndarray]:
    """``(page_base, slot_rows)``: slot *s* of page *p* holds image row
    ``slot_rows[page_base[p] + s]``, or -1 when the slot is a tombstone.
    The image holds the live rows in page and slot order; ``reads``, the
    walk's live count per page, spares the slot-by-slot look at every
    page that has no tombstone."""
    sizes = np.fromiter(
        (len(page.slots) for page in pages.pages), np.int64, len(pages.pages)
    )
    page_base = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=page_base[1:])
    live = np.ones(int(sizes.sum()), dtype=bool)
    for page_id, count in reads:
        if count < sizes[page_id]:
            base = page_base[page_id]
            live[base : base + sizes[page_id]] = [
                slot is not None for slot in pages.pages[page_id].slots
            ]
    return page_base, np.where(live, np.cumsum(live) - 1, -1)


#: One image per table, dropped with the table's page manager (a dropped
#: or truncated table frees its image).  Concurrent walks need no lock:
#: an image is used only when its key matches the pages' current one.
_IMAGES: "weakref.WeakKeyDictionary[PageManager, _TableImage]" = (
    weakref.WeakKeyDictionary()
)


def _image_chunks(pages: PageManager, batch_size: int) -> Iterator[ColumnImage]:
    """The heap's ``batch_size`` chunks in page order: replayed from the
    table image while its ``(version, page_count, batch_size)`` key holds,
    else read from the pages, building the image as they are read."""
    key = (pages.version, pages.page_count, batch_size)
    image = _IMAGES.get(pages)
    if image is not None and image.key == key:
        for reads, chunk in image.chunks:
            _charge(pages, reads)
            yield chunk
        _charge(pages, image.tail)
        return
    _IMAGES.pop(pages, None)
    reads: PageReads = []

    def page_runs() -> Iterator[List[Tuple[Any, ...]]]:
        for page_id in range(key[1]):
            page = pages.read_page(page_id)
            live = [row for row in page.slots if row is not None]
            reads.append((page_id, len(live)))
            if live:
                pages.read_row(len(live))
                yield live

    chunks: List[Tuple[PageReads, ColumnImage]] = []
    for rows in _page_chunks(page_runs(), batch_size):
        chunk = ColumnImage(rows)
        chunks.append((reads[:], chunk))
        del reads[:]
        yield chunk
    if pages.version == key[0]:
        _IMAGES[pages] = _TableImage(key, chunks, reads)


def _charge(pages: PageManager, reads: PageReads) -> None:
    """Read each page and charge its live rows, as the walk that built
    the image did (the same counters and fault-injector decisions)."""
    for page_id, live in reads:
        pages.read_page(page_id)
        if live:
            pages.read_row(live)


def run_seq_scan_batched(
    database: Database,
    node: SeqScan,
    batch_size: int,
    guard: Any = None,
    quota: Optional[ScanQuota] = None,
) -> Iterator[RowBatch]:
    """Batched sequential scan, filtered through the vector kernel.

    Without a LIMIT quota or a snapshot the chunks come from the table
    image (see the module docstring); under a snapshot they are the
    visible rows re-cut into fixed ``batch_size`` chunks; under a quota
    each fetch is clamped to what LIMIT still needs.  All three charge
    the row scan's I/O.
    """
    table = database.table(node.table_name)
    snapshot = database.concurrency.current_snapshot()
    if quota is not None:
        chunks = _quota_chunks(_scan_rows(database, node), batch_size, quota)
    elif snapshot is None:
        chunks = _image_chunks(table.pages, batch_size)
    else:
        chunks = _page_chunks(
            database.concurrency.visible_row_runs(table, snapshot), batch_size
        )
    return _scan_chunks(chunks, _layout(node, table), node, guard)


def _scan_chunks(
    chunks: Iterator[Chunk],
    layout: Layout,
    node: "SeqScan | IndexScan",
    guard: Any,
) -> Iterator[RowBatch]:
    """Each chunk as a batch of the layout's columns, backed by its row
    tuples or its table-image chunk (read only as the predicate or the
    output touches them), filtered by the pushed-down predicate (see
    :func:`~repro.expr.vector.select_rows`)."""
    for chunk in chunks:
        if guard is not None:
            guard.tick(len(chunk))
        if isinstance(chunk, ColumnImage):
            chunk = RowBatch.from_image(*layout, chunk)
        elif not isinstance(chunk, RowBatch):
            chunk = RowBatch.from_tuples(*layout, chunk)
        if node.compiled_predicate is not None:
            chunk = select_rows(node.compiled_predicate, chunk)
        if len(chunk):
            yield chunk


def run_index_scan_batched(
    database: Database,
    node: IndexScan,
    batch_size: int,
    guard: Any = None,
    quota: Optional[ScanQuota] = None,
) -> Iterator[RowBatch]:
    """Batched twin of :func:`run_index_scan`.

    With no snapshot and the table's image current, the range's rows are
    gathered from the image (see :func:`_image_fetch`); otherwise they
    are the row scan's rows re-cut into chunks.  Either way the chunks,
    and the pages and rows charged before each, are those of the row
    scan pulled ``batch_size`` rows (or the LIMIT quota) at a time.
    """
    table = database.table(node.table_name)
    layout = _layout(node, table)
    chunks = _index_chunks(database, node, table.pages, layout, batch_size, quota)
    return _scan_chunks(chunks, layout, node, guard)


def _index_chunks(
    database: Database,
    node: IndexScan,
    pages: PageManager,
    layout: Layout,
    batch_size: int,
    quota: Optional[ScanQuota],
) -> "Iterator[List[Tuple[Any, ...]] | RowBatch]":
    """The range's chunks: gathered from the table image while it is
    current and no snapshot is installed, else the row scan's rows.  The
    choice is made at the first pull, where the row scan reads its
    snapshot."""
    image = _IMAGES.get(pages)
    if (
        image is None
        or not image.current(pages)
        or database.concurrency.current_snapshot() is not None
    ):
        yield from _quota_chunks(_scan_rows(database, node), batch_size, quota)
    elif quota is None or quota.remaining > 0:
        index = database.catalog.index(node.index_name)
        lo, hi = _range(index, node)
        yield from _image_fetch(image, pages, index, layout, lo, hi, batch_size, quota)


def _image_fetch(
    image: _TableImage,
    pages: PageManager,
    index: BTreeIndex,
    layout: Layout,
    lo: int,
    hi: int,
    batch_size: int,
    quota: Optional[ScanQuota],
) -> Iterator[RowBatch]:
    """The live rows of the index's entries ``lo:hi`` gathered from the
    table image's columns at the layout's positions, ``batch_size`` (at
    most the quota's) a chunk.

    Before each chunk the fetches are charged through the one-page
    buffer as the row scan's are: up to the chunk's last row, or to the
    range's end when the chunk ends it.  A chunk looks only at the
    entries up to its last row (tombstones make it look further).
    """
    page_ids, positions = image.entries(pages, index)
    page_ids, at = page_ids[lo:hi], positions[lo:hi]
    names, positions = layout
    columns = image.columns(positions)
    buffer = FetchBuffer(pages.counters)
    start = 0
    while quota is None or quota.remaining > 0:
        want = batch_size if quota is None else min(batch_size, quota.remaining)
        picks: List[int] = []
        end = start
        while len(picks) < want and end < len(at):
            window = at[end : end + want]
            live = np.flatnonzero(window >= 0)[: want - len(picks)]
            picks += window[live].tolist()
            end += int(live[-1]) + 1 if len(picks) == want else len(window)
        buffer.fetch_run(page_ids[start:end])
        start = end
        if not picks:
            return
        pages.read_row(len(picks))
        yield RowBatch(names, dict(zip(names, gather(columns, picks))), len(picks))
        if len(picks) < want:
            return  # the range is exhausted and charged to its end

"""The batched index scan's range fetch, held to the row-at-a-time scan.

With no snapshot and the table's image current, ``run_index_scan_batched``
finds its range once, as a slice of the index's entries, and gathers it
from the image a chunk at a time; otherwise it re-cuts the row scan's
rows into chunks (source ``"pages"`` below).  Every check here compares
it with the row scan
(``scans._index_rows``, which the oracle executor and DML row location
read) pulled ``batch_size`` rows, or the LIMIT quota, at a time:

* the rows of each chunk, in index order;
* the page and row reads charged before each chunk and in all, with
  tombstoned slots and duplicate keys in the range, under exclusive and
  composite-prefix bounds, on an empty range, under a LIMIT quota and
  for a consumer that stops after one chunk;
* that an image made stale by a write is not gathered from, and that an
  index scan never publishes one;
* an ``index_probe`` fault injector's decisions;
* whole queries on the production executor against the oracle.
"""

import random

import pytest

from repro import SoftDB
from repro.errors import ReproError
from repro.executor import scans
from repro.executor.runtime import Executor
from repro.executor.scans import ScanQuota
from repro.optimizer.explain import explain
from repro.optimizer.physical import IndexScan
from repro.resilience.faults import FaultInjector

pytestmark = pytest.mark.differential

ROWS = 1200
#: Keys repeat: every ``b`` value is held by ~32 rows spread over the heap.
DISTINCT = 37


def _db(tombstones: bool = False) -> SoftDB:
    db = SoftDB()
    db.execute("CREATE TABLE t (a INT, b INT, c TEXT)")
    order = list(range(ROWS))
    random.Random(5).shuffle(order)
    db.database.insert_many("t", [(i, i % DISTINCT, f"v{i % 11}") for i in order])
    db.execute("CREATE INDEX ix_b ON t (b)")
    db.execute("CREATE INDEX ix_ba ON t (b, a)")
    db.runstats_all()
    if tombstones:
        # Slots emptied under the index, which still points at them.
        pages = db.database.table("t").pages
        for page in pages.pages[::3]:
            for slot_no in range(0, len(page.slots), 4):
                page.slots[slot_no] = None
        scans._IMAGES.pop(pages, None)
    return db


def _pages(db: SoftDB):
    return db.database.table("t").pages


def _image(db: SoftDB):
    return scans._IMAGES.get(_pages(db))


def _build_image(db: SoftDB) -> None:
    Executor(db.database, batch_size=64).execute(db.optimizer.optimize("SELECT a FROM t"))
    assert _image(db) is not None and _image(db).current(_pages(db))


def _scan(index, low=None, high=None, low_inclusive=True, high_inclusive=True):
    return IndexScan("t", "t", index, low, high, low_inclusive, high_inclusive)


def _trace(db: SoftDB, chunks, limit=None, stop_after=None):
    """``(page reads, row reads, rows)`` after each chunk, then the
    totals.  With ``limit``, the chunks are pulled through a quota that
    shrinks as a LIMIT's does; with ``stop_after``, the consumer stops."""
    counters = db.database.counters
    base = counters.page_reads, counters.rows_read
    quota = None if limit is None else ScanQuota(limit)
    out = []
    source = chunks(quota)
    for chunk in source:
        out.append((counters.page_reads - base[0], counters.rows_read - base[1], chunk))
        if quota is not None:
            quota.remaining -= len(chunk)
        if stop_after is not None and len(out) == stop_after:
            source.close()
            break
    return out, (counters.page_reads - base[0], counters.rows_read - base[1])


def _row_scan(db, node, batch_size):
    def chunks(quota):
        source = scans._scan_rows(db.database, node)
        for chunk in scans._quota_chunks(source, batch_size, quota):
            yield [tuple(row) for row in chunk]

    return chunks


def _batched(db, node, batch_size):
    def chunks(quota):
        batches = scans.run_index_scan_batched(db.database, node, batch_size, quota=quota)
        for batch in batches:
            yield [tuple(row.values()) for row in batch.to_rows()]

    return chunks


def _agree(db, node, batch_size, **pull):
    expected = _trace(db, _row_scan(db, node, batch_size), **pull)
    actual = _trace(db, _batched(db, node, batch_size), **pull)
    assert actual == expected
    return expected


RANGES = {
    "whole-index": _scan("ix_b"),
    "duplicate-key": _scan("ix_b", (5,), (5,)),
    "exclusive": _scan("ix_b", (3,), (9,), False, False),
    "low-exclusive": _scan("ix_b", (30,), None, False),
    "prefix": _scan("ix_ba", (4,), (6,)),
    "prefix-exclusive": _scan("ix_ba", (4,), (6,), False, False),
    "composite": _scan("ix_ba", (7, 100), (7, 900), True, False),
    "empty": _scan("ix_b", (1000,), (2000,)),
    "inverted": _scan("ix_b", (9,), (3,)),
}

SOURCES = ("pages", "image")


def _prepare(source: str, tombstones: bool) -> SoftDB:
    db = _db(tombstones)
    if source == "image":
        _build_image(db)
    return db


@pytest.mark.parametrize("tombstones", [False, True], ids=["live", "tombstones"])
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("name", sorted(RANGES))
def test_chunks_rows_and_charges_match_the_row_scan(name, source, tombstones):
    db = _prepare(source, tombstones)
    node = RANGES[name]
    for batch_size in (1, 7, 64, 5000):
        chunks, _totals = _agree(db, node, batch_size)
        if name in ("empty", "inverted"):
            assert chunks == []
    if source == "image":
        assert _image(db).current(_pages(db)), "an index scan must not move the image"


@pytest.mark.parametrize("source", SOURCES)
def test_range_rows_come_in_index_order(source):
    db = _prepare(source, tombstones=True)
    chunks, _ = _agree(db, RANGES["prefix"], 64)
    rows = [row for _reads, _rows, chunk in chunks for row in chunk]
    assert rows and rows == sorted(rows, key=lambda row: (row[1], row[0]))


@pytest.mark.parametrize("tombstones", [False, True], ids=["live", "tombstones"])
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("limit", [1, 10, 33, ROWS])
def test_a_limit_quota_stops_the_fetch_where_the_row_scan_stops(source, tombstones, limit):
    db = _prepare(source, tombstones)
    for batch_size in (1, 7, 64):
        for node in (RANGES["whole-index"], RANGES["duplicate-key"]):
            _agree(db, node, batch_size, limit=limit)


@pytest.mark.parametrize("tombstones", [False, True], ids=["live", "tombstones"])
@pytest.mark.parametrize("source", SOURCES)
def test_an_abandoned_scan_is_charged_only_as_far_as_it_pulled(source, tombstones):
    db = _prepare(source, tombstones)
    whole = _agree(db, RANGES["whole-index"], 64)
    chunks, totals = _agree(db, RANGES["whole-index"], 64, stop_after=1)
    assert len(chunks) == 1 and totals < whole[1]


def test_a_stale_image_is_not_gathered_from(monkeypatch):
    db = _db()
    _build_image(db)
    stale = _image(db)
    db.execute("UPDATE t SET c = 'moved' WHERE b = 5")
    assert not stale.current(_pages(db))
    gathers = []
    image_fetch = scans._image_fetch
    monkeypatch.setattr(
        scans, "_image_fetch", lambda *args: gathers.append(args) or image_fetch(*args)
    )
    chunks, _ = _agree(db, RANGES["duplicate-key"], 7)
    assert {row[2] for _reads, _rows, chunk in chunks for row in chunk} == {"moved"}
    assert gathers == []
    assert _image(db) is stale, "an index scan must publish no image"


def test_a_current_image_is_gathered_from(monkeypatch):
    db = _db()
    _build_image(db)
    gathers = []
    image_fetch = scans._image_fetch
    monkeypatch.setattr(
        scans, "_image_fetch", lambda *args: gathers.append(args) or image_fetch(*args)
    )
    _agree(db, RANGES["exclusive"], 64)
    assert len(gathers) == 1


def test_an_index_scan_builds_no_image():
    db = _db()
    _agree(db, RANGES["whole-index"], 64)
    assert _image(db) is None


def _probe_outcome(path: str, seed: int):
    """Run a whole-index scan under an ``index_probe`` fault injector on
    a fresh database: the rows or the error, and the sites decided."""
    db = _db()
    injector = (
        FaultInjector(seed=seed)
        .add("index_probe", "transient", probability=0.4)
        .add("index_probe", "corrupt", probability=0.2)
    )
    sites = []
    decide = injector.decide
    injector.decide = lambda site: sites.append(site) or decide(site)
    db.attach_fault_injector(injector)
    make = _row_scan if path == "row" else _batched
    try:
        outcome = [_trace(db, make(db, RANGES["exclusive"], 64)) for _ in range(3)]
    except ReproError as error:
        outcome = (type(error), str(error))
    return outcome, sites, injector.snapshot()


@pytest.mark.parametrize("seed", range(8))
def test_fault_injector_decides_the_same(seed):
    assert _probe_outcome("batched", seed) == _probe_outcome("row", seed)


QUERIES = (
    "SELECT a, b, c FROM t WHERE b = 5",
    "SELECT a, c FROM t WHERE b > 3 AND b < 9",
    "SELECT a FROM t WHERE b = 7 AND a >= 100 AND a < 900",
    "SELECT a, c FROM t WHERE b = 5 AND c = 'v3'",
    "SELECT b, COUNT(*) FROM t WHERE b BETWEEN 4 AND 6 GROUP BY b",
    "SELECT a FROM t WHERE b = 2 LIMIT 5",
    "SELECT a FROM t WHERE b > 1000",
)


@pytest.mark.parametrize("tombstones", [False, True], ids=["live", "tombstones"])
@pytest.mark.parametrize("source", SOURCES)
def test_queries_match_the_oracle(source, tombstones):
    db = _prepare(source, tombstones)
    indexed = 0
    for sql in QUERIES:
        plan = db.optimizer.optimize(sql)
        indexed += "IndexScan" in explain(plan)
        oracle = Executor(db.database, batch_size=0).execute(plan)
        for batch_size in (3, 1024):
            production = Executor(db.database, batch_size=batch_size).execute(plan)
            assert production.tuples() == oracle.tuples(), sql
            assert (production.page_reads, production.rows_read) == (
                oracle.page_reads,
                oracle.rows_read,
            ), sql
    assert indexed >= len(QUERIES) - 2

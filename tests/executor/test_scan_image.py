"""The batched sequential scan's table image, held to the oracle.

With no snapshot and no LIMIT quota, ``run_seq_scan_batched`` replays
the chunks of the table's last full walk while the table's write version
(``PageManager.version``) and page count hold.  Every check here runs
the production executor twice — a build (no image yet) and a hit (the
image reused) — against the row-at-a-time oracle on the same database:

* the answer, ``page_reads`` and ``rows_read`` after each kind of write
  (the scan must see it);
* the page and row counts charged before each chunk, which a page-read
  guard and a fault injector observe;
* that an abandoned or write-interrupted walk publishes nothing, that a
  snapshot read never takes the image, and that an index scan gathers
  from a current image but never builds one.
"""

import pytest

from repro import SoftDB
from repro.errors import ReproError
from repro.executor import scans
from repro.executor.batch import RowBatch
from repro.executor.runtime import Executor
from repro.executor.vecbatch import ColumnImage
from repro.executor.vectorized import BatchedInterpreter
from repro.optimizer.physical import SeqScan
from repro.replication import Replica, WalShipper
from repro.resilience.faults import FaultInjector
from repro.resilience.guards import QueryGuard

pytestmark = pytest.mark.differential

#: Small enough that the table spans many chunks and chunks straddle pages.
BATCH = 64
ROWS = 1500

QUERIES = (
    "SELECT a, b, c, d FROM t",
    "SELECT a, c FROM t WHERE b = 3",  # many survivors per chunk
    "SELECT a, d FROM t WHERE a = 17",  # one survivor in one chunk
    "SELECT a FROM t WHERE a < 0",  # no survivors
    "SELECT b, COUNT(*), SUM(d) FROM t GROUP BY b ORDER BY b",
    # Two scans of one table under two bindings share one image.
    "SELECT x.a, y.a FROM t x, t y WHERE x.a = y.b AND x.a < 5",
)

LONG = "x" * 200


def _fill(db: SoftDB) -> None:
    db.execute("CREATE TABLE t (a INT, b INT, c TEXT, d FLOAT)")
    db.database.insert_many(
        "t", [(i, i % 7, f"v{i % 5}", i / 4) for i in range(ROWS)]
    )


def _db() -> SoftDB:
    db = SoftDB()
    _fill(db)
    db.runstats_all()
    return db


def _image(db: SoftDB, table: str = "t"):
    return scans._IMAGES.get(db.database.table(table).pages)


def _scan_nodes(node):
    if isinstance(node, SeqScan):
        return [node]
    return [scan for child in node.children() for scan in _scan_nodes(child)]


def _run(database, plan, batch_size):
    result = Executor(database, batch_size=batch_size).execute(plan)
    return result.tuples(), result.page_reads, result.rows_read


def _agree(db: SoftDB, sql: str):
    """``sql`` on the oracle, then twice in production: all three give
    the same rows and counts.  The first production run reuses the
    table's image if it is current, else builds one; the second reuses
    it.  Returns the rows."""
    plan = db.optimizer.optimize(sql)
    table = db.database.table("t")
    expected = _run(db.database, plan, 0)
    assert _run(db.database, plan, BATCH) == expected, sql
    image = _image(db)
    assert image is not None, sql
    assert image.key == (table.pages.version, table.page_count, BATCH)
    assert _run(db.database, plan, BATCH) == expected, sql
    assert _image(db) is image, f"second run rebuilt the image: {sql}"
    return expected[0]


def _answers(db: SoftDB):
    return [_agree(db, sql) for sql in QUERIES]


# -- every write kind moves the version ---------------------------------------


def _forwarding_update(db: SoftDB) -> None:
    pages = db.database.table("t").pages.pages

    def page_of(a):
        (page_id,) = [
            page.page_id for page in pages for row in page.slots if row and row[0] == a
        ]
        return page_id

    db.execute(f"UPDATE t SET c = '{LONG}' WHERE a < 3")
    assert page_of(0) != 0, "the grown row should have moved off its full page"


def _rolled_back(db: SoftDB) -> None:
    db.execute("BEGIN")
    db.execute("UPDATE t SET b = 3 WHERE a < 100")
    db.execute("DELETE FROM t WHERE a >= 1400")
    db.execute("INSERT INTO t VALUES (9000, 3, 'new', 0.5)")
    # This thread reads with no snapshot installed, so the image is
    # built over the uncommitted heap; the rollback must retire it.
    assert _answers(db) != _answers(_db())
    db.execute("ROLLBACK")


WRITES = {
    "insert": lambda db: db.execute("INSERT INTO t VALUES (9000, 3, 'new', 0.5)"),
    "update-in-place": lambda db: db.execute("UPDATE t SET b = 5 WHERE a = 10"),
    "update-forwarding": _forwarding_update,
    "delete": lambda db: db.execute("DELETE FROM t WHERE b = 3"),
    "rollback": _rolled_back,
    "truncate": lambda db: db.database.table("t").truncate(),
}


@pytest.mark.parametrize("write", sorted(WRITES))
def test_scan_after_a_write_sees_it(write):
    db = _db()
    before = _answers(db)
    WRITES[write](db)
    after = _answers(db)
    if write == "rollback":
        assert after == before
    else:
        assert after != before


@pytest.mark.parametrize("checkpoint", [True, False], ids=["restore", "replay"])
def test_scan_after_recovery_sees_the_recovered_rows(tmp_path, checkpoint):
    db = SoftDB.open(tmp_path / "db")
    db.execute("CREATE TABLE t (a INT, b INT, c TEXT, d FLOAT)")
    for start in range(0, 300, 50):
        values = ", ".join(
            f"({i}, {i % 7}, 'v{i % 5}', {i / 4})" for i in range(start, start + 50)
        )
        db.execute(f"INSERT INTO t VALUES {values}")
    db.execute("DELETE FROM t WHERE b = 2")
    before = _answers(db)
    db.close(checkpoint=checkpoint)
    reopened = SoftDB.open(tmp_path / "db")
    try:
        assert _answers(reopened) == before
        reopened.execute("UPDATE t SET b = 5 WHERE a = 17")
        assert _answers(reopened) != before
    finally:
        reopened.close()


def test_scan_on_a_replica_sees_applied_commits(tmp_path):
    primary = SoftDB.open(tmp_path / "primary")
    _fill(primary)
    primary.checkpoint()
    shipper = WalShipper(primary)
    replica = Replica(tmp_path / "replica")
    shipper.attach(replica)
    try:
        assert shipper.pump_until_synced()
        before = _answers(replica.db)
        primary.execute("UPDATE t SET b = 5 WHERE a = 10")
        primary.execute(f"UPDATE t SET c = '{LONG}' WHERE a = 11")
        primary.execute("DELETE FROM t WHERE a = 12")
        primary.execute("INSERT INTO t VALUES (9000, 3, 'new', 0.5)")
        assert shipper.pump_until_synced()
        after = _answers(replica.db)
        assert after != before
        assert after == _answers(primary)
    finally:
        replica.close()
        primary.close(checkpoint=False)


# -- a hit charges what a walk charges, chunk by chunk -------------------------


def _reference_trace(table, batch_size):
    """(page reads, row reads) charged before each chunk and in all, by
    a walk that reads page after page and cuts ``batch_size`` chunks as
    soon as it holds enough rows."""
    trace, reads, rows, buffered = [], 0, 0, 0
    for page in table.pages.pages:
        live = sum(slot is not None for slot in page.slots)
        reads, rows, buffered = reads + 1, rows + live, buffered + live
        while buffered >= batch_size:
            trace.append((reads, rows))
            buffered -= batch_size
    if buffered:
        trace.append((reads, rows))
    return trace, (reads, rows)


def _trace(db, scan, batch_size):
    counters = db.database.counters
    base_reads, base_rows = counters.page_reads, counters.rows_read
    trace = [
        (counters.page_reads - base_reads, counters.rows_read - base_rows)
        for _batch in BatchedInterpreter(db.database, batch_size).run(scan)
    ]
    return trace, (counters.page_reads - base_reads, counters.rows_read - base_rows)


@pytest.mark.parametrize("batch_size", [1, 7, BATCH, "all-live-rows"])
def test_chunks_charge_pages_as_a_page_walk_does(batch_size):
    db = _db()
    table = db.database.table("t")
    # Empty the last page, so the walk ends on a page with no rows: with
    # one chunk of every live row, its read falls after the last chunk.
    last_page = [row[0] for row in table.pages.pages[-1].slots if row]
    db.execute(f"DELETE FROM t WHERE a >= {min(last_page)}")
    if batch_size == "all-live-rows":
        batch_size = table.row_count
    expected = _reference_trace(table, batch_size)
    (scan,) = _scan_nodes(db.optimizer.optimize("SELECT a, b, c, d FROM t").root)
    assert _trace(db, scan, batch_size) == expected
    image = _image(db)
    assert image is not None and image.key[2] == batch_size
    assert _trace(db, scan, batch_size) == expected
    assert _image(db) is image


def test_page_read_guard_trips_at_the_same_chunk():
    db = _db()
    plan = db.optimizer.optimize("SELECT a, b FROM t")
    guard = QueryGuard(
        max_page_reads=db.database.table("t").page_count // 2,
        on_breach="partial",
    )

    def guarded():
        result = Executor(db.database, batch_size=BATCH).execute(plan, guard=guard)
        return (
            result.tuples(), result.page_reads, result.rows_read, result.truncated
        )

    build = guarded()
    assert build[3] and 0 < len(build[0]) < ROWS
    assert _image(db) is None, "a tripped walk must not publish"
    Executor(db.database, batch_size=BATCH).execute(plan)
    assert _image(db) is not None
    assert guarded() == build


@pytest.mark.parametrize("seed", range(6))
def test_fault_injector_decides_the_same_on_build_and_hit(seed):
    db = _db()
    plan = db.optimizer.optimize("SELECT a, c FROM t WHERE b = 3")
    fault_free = Executor(db.database, batch_size=0).execute(plan).tuples()
    outcomes = []
    for from_image in (False, True):
        scans._IMAGES.pop(db.database.table("t").pages, None)
        if from_image:
            Executor(db.database, batch_size=BATCH).execute(plan)
            assert _image(db) is not None
        injector = (
            FaultInjector(seed=seed)
            .add("page_read", "transient", probability=0.3)
            .add("page_read", "corrupt", probability=0.1)
        )
        sites = []
        decide = injector.decide
        injector.decide = lambda site: sites.append(site) or decide(site)
        db.attach_fault_injector(injector)
        try:
            outcome = Executor(db.database, batch_size=BATCH).execute(plan).tuples()
            assert outcome == fault_free
        except ReproError as error:
            outcome = (type(error), str(error))
        finally:
            db.attach_fault_injector(None)
        assert sum(injector.injected.values()) > 0
        outcomes.append((outcome, len(sites)))
    assert outcomes[0] == outcomes[1]


# -- what publishes an image and what bypasses it ------------------------------


def test_abandoned_scan_publishes_nothing():
    db = _db()
    (scan,) = _scan_nodes(db.optimizer.optimize("SELECT a FROM t").root)
    batches = BatchedInterpreter(db.database, BATCH).run(scan)
    next(batches)
    batches.close()
    assert _image(db) is None


def test_scan_interrupted_by_a_write_publishes_nothing():
    db = _db()
    (scan,) = _scan_nodes(db.optimizer.optimize("SELECT a, b FROM t").root)
    batches = BatchedInterpreter(db.database, BATCH).run(scan)
    next(batches)
    db.execute(f"UPDATE t SET b = 99 WHERE a = {ROWS - 1}")
    rest = [(row["t.a"], row["t.b"]) for batch in batches for row in batch.to_rows()]
    assert (ROWS - 1, 99) in rest
    assert _image(db) is None
    assert (ROWS - 1, 99) in _agree(db, "SELECT a, b FROM t")


def test_stale_image_is_dropped_when_the_next_scan_starts():
    db = _db()
    _agree(db, "SELECT a FROM t")
    stale = _image(db)
    db.execute("INSERT INTO t VALUES (9000, 3, 'new', 0.5)")
    (scan,) = _scan_nodes(db.optimizer.optimize("SELECT a FROM t").root)
    batches = BatchedInterpreter(db.database, BATCH).run(scan)
    next(batches)
    assert _image(db) is None and stale is not None
    batches.close()


def test_limit_and_index_scans_walk_storage(monkeypatch):
    db = _db()
    db.execute("CREATE INDEX ix_a ON t (a)")
    db.runstats_all()
    gathers = []
    image_fetch = scans._image_fetch
    monkeypatch.setattr(
        scans, "_image_fetch", lambda *args: gathers.append(args) or image_fetch(*args)
    )
    queries = ("SELECT a FROM t LIMIT 10", "SELECT a, b FROM t WHERE a = 17")

    def check(sql):
        plan = db.optimizer.optimize(sql)
        oracle = Executor(db.database, batch_size=0).execute(plan)
        production = Executor(db.database, batch_size=BATCH).execute(plan)
        assert production.tuples() == oracle.tuples()
        assert production.page_reads == oracle.page_reads
        assert production.rows_read == oracle.rows_read

    for sql in queries:
        check(sql)
        assert _image(db) is None, sql
    assert gathers == []
    # With a current image (built by a full scan), the index scan
    # gathers its rows from it and leaves it as it was.
    _agree(db, "SELECT a FROM t")
    image = _image(db)
    for sql in queries:
        check(sql)
        assert _image(db) is image, sql
    assert len(gathers) == 1


def test_snapshot_read_bypasses_the_image():
    db = _db()
    reader, writer = db.session(), db.session()
    sql = "SELECT a, b FROM t WHERE a < 10"
    writer.execute("BEGIN")
    writer.execute("UPDATE t SET b = 99 WHERE a = 5")
    # No snapshot on this thread: the image holds the uncommitted row.
    assert (5, 99) in _agree(db, sql)
    assert reader.execute(sql).tuples() == [(a, a % 7) for a in range(10)]
    writer.execute("COMMIT")
    assert (5, 99) in reader.execute(sql).tuples()


@pytest.mark.parametrize("picks", [[], [3], [0, 2, 4], [0, 1, 2, 3, 4]])
def test_image_gathers_survivors_column_by_column(picks):
    rows = [(i, f"s{i}", None if i % 2 else i / 2) for i in range(5)]
    image = ColumnImage(rows)
    image.vec(0)  # a predicate touched one column first
    batch = RowBatch.from_image(("x.a", "x.b", "x.c"), (0, 1, 2), image).take(picks)
    assert len(batch) == len(picks)
    assert [tuple(row.values()) for row in batch.to_rows()] == [
        rows[p] for p in picks
    ]

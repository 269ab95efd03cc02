"""Differential chaos: under injected storage faults, every query either
returns exactly the fault-free answer or raises a typed ``ReproError`` —
never a silently wrong result.

The structure mirrors the PR-1 differential-equivalence harness: a
fault-free twin database is the oracle, and the chaos run (seeded, fully
deterministic) is compared against it query by query and — for DML — row
by row.  Select with ``pytest -m chaos``; seeds are fixed so CI failures
reproduce locally by copying the seed.
"""

from typing import Optional

import pytest

from repro import SoftDB
from repro.engine.transactions import Transaction
from repro.errors import (
    IndexCorruptionError,
    ReproError,
    TransientIOError,
)
from repro.optimizer.planner import OptimizerConfig
from repro.resilience.faults import FaultInjector
from repro.resilience.guards import QueryGuard

pytestmark = pytest.mark.chaos

#: Fixed seeds: one per CI chaos shard.  Failures name the seed, so a
#: broken run is reproducible with ``-k "seed-<n>"``.
SEEDS = (7, 23, 1009)

#: Both executors: the row-at-a-time oracle mode and a batched mode.
BATCH_SIZES = (0, 32)

QUERIES = (
    "SELECT count(*) AS n FROM emp",
    "SELECT id, salary FROM emp WHERE salary > 1200",
    "SELECT v FROM emp WHERE id <= 8",
    "SELECT dept_id, count(*) AS n, sum(salary) AS total "
    "FROM emp GROUP BY dept_id",
    "SELECT e.id, d.budget FROM emp e, dept d WHERE e.dept_id = d.id "
    "AND d.budget > 30000",
    "SELECT count(*) AS n FROM emp, dept "
    "WHERE emp.salary < dept.budget AND dept.id < 3",
    "SELECT DISTINCT dept_id FROM emp",
    "SELECT id FROM emp WHERE salary > 1500 ORDER BY salary DESC LIMIT 10",
    "SELECT id FROM emp WHERE id < 5 "
    "UNION ALL SELECT id FROM dept WHERE id < 5",
)


def build_db(config: Optional[OptimizerConfig] = None) -> SoftDB:
    db = SoftDB(config)
    db.execute(
        "CREATE TABLE emp (id INT PRIMARY KEY, dept_id INT, salary INT, "
        "v INT)"
    )
    db.execute("CREATE TABLE dept (id INT PRIMARY KEY, budget INT)")
    db.database.insert_many(
        "emp",
        [(n, n % 12, 900 + (n * 37) % 900, n * 3) for n in range(500)],
    )
    db.database.insert_many(
        "dept", [(n, 10_000 * (n + 1)) for n in range(12)]
    )
    db.execute("CREATE INDEX ix_emp_id ON emp (id)")
    db.runstats_all()
    return db


def chaos_injector(seed: int) -> FaultInjector:
    return (
        FaultInjector(seed=seed)
        .add("page_read", "transient", probability=0.05)
        .add("page_read", "corrupt", probability=0.03)
        .add("index_probe", "transient", probability=0.05)
        .add("index_probe", "corrupt", probability=0.02)
        .add("page_write", "transient", probability=0.05)
    )


def canonical(result) -> list:
    return sorted(
        tuple(row[name] for name in result.columns) for row in result.rows
    )


def heap_verify(db: SoftDB, table_name: str) -> None:
    """Every page's incremental checksum must match its contents."""
    for page in db.database.table(table_name).pages.pages:
        page.verify()


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed-{s}" for s in SEEDS])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_queries_never_silently_wrong(seed, batch_size):
    config = OptimizerConfig(batch_size=batch_size)
    oracle_db = build_db(config)
    oracle = {sql: canonical(oracle_db.execute(sql)) for sql in QUERIES}
    db = build_db(config)
    injector = chaos_injector(seed)
    db.attach_fault_injector(injector)
    outcomes = {"ok": 0, "typed-error": 0}
    for _ in range(4):
        for sql in QUERIES:
            try:
                result = db.execute(sql)
            except ReproError as error:
                outcomes["typed-error"] += 1
                if isinstance(error, IndexCorruptionError) and error.index_name:
                    db.rebuild_index(error.index_name)
                continue
            assert canonical(result) == oracle[sql], (
                f"silently wrong answer under seed {seed}: {sql!r}"
            )
            outcomes["ok"] += 1
    # The run must actually have been stressed, and must have survived
    # at least some of it: an all-error or fault-free pass proves nothing.
    assert sum(injector.injected.values()) > 0
    assert outcomes["ok"] > 0


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed-{s}" for s in SEEDS])
def test_guarded_queries_never_silently_wrong(seed):
    """Faults and resource guards together still yield oracle-or-typed."""
    oracle_db = build_db()
    oracle = {sql: canonical(oracle_db.execute(sql)) for sql in QUERIES}
    db = build_db()
    db.attach_fault_injector(chaos_injector(seed))
    guard = QueryGuard(max_rows=100_000, max_page_reads=100_000)
    for sql in QUERIES:
        try:
            result = db.execute(sql, guard=guard)
        except ReproError as error:
            if isinstance(error, IndexCorruptionError) and error.index_name:
                db.rebuild_index(error.index_name)
            continue
        assert canonical(result) == oracle[sql]


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed-{s}" for s in SEEDS])
def test_dml_statement_atomicity_differential(seed):
    """Single-row DML under write faults: each statement either applies
    fully (matching a fault-free twin) or raises having changed nothing."""
    db = build_db()
    twin = build_db()
    injector = FaultInjector(seed=seed).add(
        "page_write", "transient", probability=0.2
    )
    db.attach_fault_injector(injector)
    statements = []
    for n in range(40):
        statements.append(
            f"INSERT INTO emp VALUES ({1000 + n}, {n % 12}, {1000 + n}, 0)"
        )
        statements.append(f"DELETE FROM emp WHERE id = {n * 7}")
        statements.append(
            f"UPDATE emp SET salary = {2000 + n} WHERE id = {200 + n}"
        )
    applied = failed = 0
    for sql in statements:
        try:
            db.execute(sql)
        except ReproError:
            failed += 1
            continue  # fail-before-mutate: the twin skips it too
        twin.execute(sql)
        applied += 1
    injector.pause()
    assert applied > 0 and failed > 0, "chaos run was not actually stressed"
    final = canonical(db.execute("SELECT id, dept_id, salary, v FROM emp"))
    expected = canonical(twin.execute("SELECT id, dept_id, salary, v FROM emp"))
    assert final == expected
    heap_verify(db, "emp")


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed-{s}" for s in SEEDS])
def test_multirow_dml_statement_atomicity_differential(seed):
    """Multi-row statements under write faults are all-or-nothing.

    A fault midway through a 6-row INSERT (or a many-row UPDATE/DELETE
    WHERE) must roll the already-applied prefix back: the surviving
    state always matches a twin that skipped the failed statement
    wholesale.  Rollback may relocate rows (undo re-inserts into fresh
    slots), so the comparison is logical, with page/index checksums
    verified separately."""
    db = build_db()
    twin = build_db()
    injector = FaultInjector(seed=seed).add(
        "page_write", "transient", probability=0.2
    )
    db.attach_fault_injector(injector)
    statements = []
    for n in range(25):
        base = 2000 + n * 6
        values = ", ".join(
            f"({base + k}, {k % 12}, {1100 + n * 17 + k}, {n})"
            for k in range(6)
        )
        statements.append(f"INSERT INTO emp VALUES {values}")
        statements.append(
            f"UPDATE emp SET v = {n} WHERE dept_id = {n % 12}"
        )
        statements.append(f"DELETE FROM emp WHERE id >= {3000 - n * 13}")
    applied = failed = 0
    for sql in statements:
        try:
            count = db.execute(sql)
        except ReproError:
            failed += 1
            continue
        assert twin.execute(sql) == count
        applied += 1
    injector.pause()
    assert applied > 0 and failed > 0, "chaos run was not actually stressed"
    final = canonical(db.execute("SELECT id, dept_id, salary, v FROM emp"))
    expected = canonical(twin.execute("SELECT id, dept_id, salary, v FROM emp"))
    assert final == expected
    assert (
        db.database.table("emp").row_count
        == twin.database.table("emp").row_count
    )
    heap_verify(db, "emp")
    for index in db.database.catalog.indexes_on("emp"):
        index.verify()


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed-{s}" for s in SEEDS])
def test_mid_transaction_fault_rolls_back_bit_consistent(seed):
    """A write fault mid-transaction aborts the statement pre-mutation;
    rollback then restores the pre-transaction state exactly."""
    db = build_db()
    table = db.database.table("dept")
    before_rows = sorted(table.scan_rows())
    before_count = table.row_count
    txn = Transaction(db.database)
    for n in range(5):
        txn.insert("dept", (100 + n, 1_000 + n))
    # Now the storage starts failing every write: the next statement must
    # surface the fault without touching the heap image.
    injector = FaultInjector(seed=seed).add(
        "page_write", "transient", every_nth=1
    )
    image_before_fault = [
        (page.page_id, tuple(page.slots), page.checksum)
        for page in table.pages.pages
    ]
    db.attach_fault_injector(injector)
    with pytest.raises(TransientIOError):
        txn.insert("dept", (200, 9_999))
    assert [
        (page.page_id, tuple(page.slots), page.checksum)
        for page in table.pages.pages
    ] == image_before_fault
    # Recovery pauses injection (as rebuild_index does) and rolls back.
    injector.pause()
    txn.rollback()
    assert not txn.is_active
    assert table.row_count == before_count
    assert sorted(table.scan_rows()) == before_rows
    heap_verify(db, "dept")
    # Index checksums survived the round trip too.
    for index in db.database.catalog.indexes_on("dept"):
        index.verify()

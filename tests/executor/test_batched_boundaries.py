"""Batch-boundary cases: every one must match row-at-a-time output.

Covers batch sizes 1, 2, an exact multiple of the table size, and larger
than the table; empty tables; all-NULL join keys; and LIMIT landing in
the middle of a batch.  (The dialect has no OFFSET clause, so mid-batch
LIMIT is the only cut point to test.)
"""

from typing import Optional

import pytest

from repro import SoftDB
from repro.errors import ExecutionError
from repro.executor.runtime import Executor
from repro.executor.vectorized import BatchedInterpreter
from repro.optimizer.planner import OptimizerConfig

pytestmark = pytest.mark.differential

TABLE_ROWS = 12  # every test table below has exactly this many rows
BOUNDARY_SIZES = (1, 2, 4, TABLE_ROWS, TABLE_ROWS + 1, 5 * TABLE_ROWS)


def build(config: Optional[OptimizerConfig] = None) -> SoftDB:
    db = SoftDB(config)
    db.execute("CREATE TABLE t (a INT, b INT, c INT)")
    db.database.insert_many(
        "t",
        [
            (i, None if i % 4 == 0 else i % 5, 100 - i)
            for i in range(TABLE_ROWS)
        ],
    )
    db.runstats_all()
    return db


@pytest.fixture
def db() -> SoftDB:
    return build()


def both_ways(db: SoftDB, sql: str, batch_size: int):
    plan = db.plan(sql)
    oracle = Executor(db.database, batch_size=0).execute(plan)
    batched = Executor(db.database, batch_size=batch_size).execute(plan)
    return oracle, batched


@pytest.mark.parametrize("batch_size", BOUNDARY_SIZES)
class TestBatchSizeBoundaries:
    def test_scan_filter(self, db, batch_size):
        oracle, batched = both_ways(
            db, "SELECT a, b FROM t WHERE b >= 2", batch_size
        )
        assert batched.tuples() == oracle.tuples()
        assert batched.page_reads == oracle.page_reads

    def test_group_by(self, db, batch_size):
        oracle, batched = both_ways(
            db,
            "SELECT b, count(*) AS n, sum(a) AS s FROM t GROUP BY b",
            batch_size,
        )
        assert batched.tuples() == oracle.tuples()

    def test_order_by(self, db, batch_size):
        oracle, batched = both_ways(
            db, "SELECT a, b FROM t ORDER BY b DESC, a", batch_size
        )
        assert batched.tuples() == oracle.tuples()

    def test_distinct(self, db, batch_size):
        oracle, batched = both_ways(
            db, "SELECT DISTINCT b FROM t", batch_size
        )
        assert batched.tuples() == oracle.tuples()

    def test_self_join(self, db, batch_size):
        oracle, batched = both_ways(
            db,
            "SELECT x.a, y.a FROM t x, t y WHERE x.b = y.b AND x.a < y.a",
            batch_size,
        )
        assert sorted(batched.tuples()) == sorted(oracle.tuples())
        assert batched.row_count == oracle.row_count


class TestEmptyTables:
    @pytest.fixture
    def empty(self) -> SoftDB:
        db = SoftDB()
        db.execute("CREATE TABLE t (a INT, b INT, c INT)")
        db.execute("CREATE TABLE u (a INT, b INT)")
        db.runstats_all()
        return db

    @pytest.mark.parametrize("batch_size", (1, 1024))
    def test_scan_of_empty_table(self, empty, batch_size):
        oracle, batched = both_ways(empty, "SELECT a FROM t", batch_size)
        assert batched.tuples() == oracle.tuples() == []

    @pytest.mark.parametrize("batch_size", (1, 1024))
    def test_scalar_aggregate_over_empty(self, empty, batch_size):
        sql = "SELECT count(*) AS n, sum(a) AS s, min(b) AS lo FROM t"
        oracle, batched = both_ways(empty, sql, batch_size)
        assert batched.tuples() == oracle.tuples() == [(0, None, None)]

    @pytest.mark.parametrize("batch_size", (1, 1024))
    def test_join_with_empty_side(self, empty, batch_size):
        sql = "SELECT t.a FROM t, u WHERE t.a = u.a"
        oracle, batched = both_ways(empty, sql, batch_size)
        assert batched.tuples() == oracle.tuples() == []

    @pytest.mark.parametrize("batch_size", (1, 1024))
    def test_group_by_over_empty(self, empty, batch_size):
        sql = "SELECT a, count(*) AS n FROM t GROUP BY a"
        oracle, batched = both_ways(empty, sql, batch_size)
        assert batched.tuples() == oracle.tuples() == []


class TestAllNullJoinKeys:
    @pytest.fixture
    def nulls(self) -> SoftDB:
        db = SoftDB()
        db.execute("CREATE TABLE l (k INT, v INT)")
        db.execute("CREATE TABLE r (k INT, w INT)")
        db.database.insert_many("l", [(None, i) for i in range(6)])
        db.database.insert_many("r", [(None, 10 * i) for i in range(4)])
        db.runstats_all()
        return db

    @pytest.mark.parametrize("batch_size", (1, 3, 1024))
    def test_equi_join_matches_nothing(self, nulls, batch_size):
        sql = "SELECT l.v, r.w FROM l, r WHERE l.k = r.k"
        oracle, batched = both_ways(nulls, sql, batch_size)
        assert batched.tuples() == oracle.tuples() == []

    @pytest.mark.parametrize("batch_size", (1, 3, 1024))
    def test_cross_product_still_pairs(self, nulls, batch_size):
        # NULL keys only kill equality matches, not the cross product.
        sql = "SELECT l.v, r.w FROM l, r WHERE l.v < 2"
        oracle, batched = both_ways(nulls, sql, batch_size)
        assert sorted(batched.tuples()) == sorted(oracle.tuples())
        assert batched.row_count == oracle.row_count == 8


class TestLimitMidBatch:
    @pytest.mark.parametrize("batch_size", (2, 4, 5, TABLE_ROWS + 1))
    @pytest.mark.parametrize("limit", (0, 1, 5, 7, TABLE_ROWS, 99))
    def test_limit_lands_mid_batch(self, db, batch_size, limit):
        sql = f"SELECT a FROM t LIMIT {limit}"
        oracle, batched = both_ways(db, sql, batch_size)
        assert batched.tuples() == oracle.tuples()
        assert batched.row_count == min(limit, TABLE_ROWS)

    @pytest.mark.parametrize("batch_size", (2, 5))
    def test_limit_over_sort_mid_batch(self, db, batch_size):
        sql = "SELECT a FROM t ORDER BY c LIMIT 7"
        oracle, batched = both_ways(db, sql, batch_size)
        assert batched.tuples() == oracle.tuples()
        # The sort materializes its whole input either way, so even the
        # page accounting agrees under LIMIT here.
        assert batched.page_reads == oracle.page_reads


def test_batch_size_zero_is_row_at_a_time(db):
    result = build(OptimizerConfig(batch_size=0)).execute(
        "SELECT a FROM t WHERE b = 2"
    )
    assert result.executor == "oracle"
    assert result.rows == db.execute("SELECT a FROM t WHERE b = 2").rows


def test_batched_interpreter_rejects_nonpositive_sizes(db):
    with pytest.raises(ExecutionError):
        BatchedInterpreter(db.database, batch_size=0)
    with pytest.raises(ExecutionError):
        BatchedInterpreter(db.database, batch_size=-4)

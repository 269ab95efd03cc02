"""A production SELECT's result stays in its batches.

``ExecutionResult`` keeps the top operator's batches: ``row_count``,
``tuples()``, ``column()`` and ``scalar()`` read their columns, and
``rows`` builds the row dicts once, on first access, and drops the
batches.  Each accessor must
give what the row-dict representation gave: the batches' rows as dicts
(``RowBatch.to_rows``), and tuples, columns and the scalar read off
those dicts.
"""

import pytest

from repro import SoftDB
from repro.corpus.generator import generate_corpus
from repro.errors import ExecutionError
from repro.executor.batch import RowBatch
from repro.executor.runtime import ExecutionResult, Executor
from repro.executor.vecbatch import ColumnImage
from repro.executor.vectorized import BatchedInterpreter
from repro.resilience.guards import QueryGuard
from repro.workload.tpc import build_tpc_db

pytestmark = pytest.mark.differential

CORPUS = [query.sql for query in generate_corpus(seed=0)]


@pytest.fixture(scope="module")
def tpc():
    return build_tpc_db(scale_factor=0.25)


def _dict_rows(db, plan):
    """The plan's rows as dicts, straight from the production batches."""
    interpreter = BatchedInterpreter(db.database, db.executor.batch_size)
    return [row for batch in interpreter.run(plan.root) for row in batch.to_rows()]


def _assert_reads_like_dicts(result: ExecutionResult, rows) -> None:
    columns = result.columns
    assert result.row_count == len(rows)
    assert result.tuples() == [tuple(row[name] for name in columns) for row in rows]
    for name in columns:
        assert result.column(name) == [row[name] for row in rows]
    if len(rows) == 1 and len(columns) == 1:
        assert result.scalar() == rows[0][columns[0]]
    else:
        with pytest.raises(ExecutionError, match="scalar"):
            result.scalar()
    assert result.rows == rows
    assert result.rows is result.rows, "rows are built once"
    assert not result._batches, "the dicts take the batches' place"


@pytest.mark.parametrize("at", range(0, len(CORPUS), 8))
def test_corpus_results_read_like_their_row_dicts(tpc, at):
    for sql in CORPUS[at : at + 8]:
        plan = tpc.plan_cache.get_plan(sql)
        expected = _dict_rows(tpc, plan)
        result = tpc.execute(sql)
        assert result.executor.startswith("production"), sql
        _assert_reads_like_dicts(result, expected)


def test_accessors_before_and_after_rows_agree(tpc):
    sql = "SELECT o.id, o.total FROM orders o WHERE o.id < 40 ORDER BY o.id"
    columnar, cached = tpc.execute(sql), tpc.execute(sql)
    cached.rows  # build the dicts first: the accessors read them after
    assert columnar.tuples() == cached.tuples()
    assert columnar.column("total") == cached.column("total")
    orders = tpc.execute("SELECT id FROM orders").row_count
    assert orders > 1
    assert tpc.execute("SELECT COUNT(*) FROM orders").scalar() == orders


def test_accessors_read_every_backing_of_the_top_batches():
    stored = [(i, f"v{i}", i / 4) for i in range(6)]
    names, positions = ("t.c", "t.a"), (1, 0)
    batches = [
        RowBatch.from_tuples(names, positions, stored[:2]),
        RowBatch.from_image(names, positions, ColumnImage(stored[2:5])),
        RowBatch(names, {"t.c": ["v5"], "t.a": [5]}),
    ]
    rows = [{"t.c": f"v{i}", "t.a": i} for i in range(6)]
    result = ExecutionResult(list(names), None, 0, 0, batches)
    _assert_reads_like_dicts(result, rows)


def _table() -> SoftDB:
    db = SoftDB()
    db.execute("CREATE TABLE t (a INT, b INT, c TEXT)")
    db.database.insert_many("t", [(i, i % 97, f"v{i}") for i in range(600)])
    db.execute("CREATE INDEX ix_b ON t (b)")
    db.runstats_all()
    return db


def test_a_partial_result_holds_the_batches_before_the_breach():
    db = _table()
    plan = db.optimizer.optimize("SELECT a, c FROM t")
    executor = Executor(db.database, batch_size=64)
    whole = executor.execute(plan)
    partial = executor.execute(plan, guard=QueryGuard(max_rows=200, on_breach="partial"))
    assert partial.truncated and 0 < partial.row_count <= 200
    assert partial.row_count % 64 == 0
    _assert_reads_like_dicts(partial, whole.rows[: partial.row_count])


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a, b, c FROM t WHERE a < 50",  # sequential scan (table image)
        "SELECT a, b, c FROM t WHERE b = 3",  # index scan
    ],
)
def test_rows_read_after_a_write_show_the_values_as_of_execution(sql):
    db = _table()
    db.execute("SELECT COUNT(*) FROM t")  # the table image is current
    result, before = db.execute(sql), db.execute(sql)
    before_rows = [dict(row) for row in before.rows]
    db.execute("UPDATE t SET c = 'changed', b = 3 WHERE a < 600")
    db.execute("DELETE FROM t WHERE a < 10")
    assert db.execute(sql).tuples() != before.tuples()
    assert result.rows == before_rows
    assert result.tuples() == before.tuples()
    assert result.column("c") == [row["c"] for row in before_rows]

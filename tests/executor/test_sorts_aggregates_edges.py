"""Edge cases for the sort and aggregate operators (both executors).

Fills coverage gaps called out alongside the batched-executor work:
DISTINCT aggregates over empty input, ORDER BY with mixed NULLs, and the
batched aggregate-state entry points (``update_values`` /
``update_count_star``) checked against the row-at-a-time ``update``.
"""

import pytest

from repro import SoftDB
from repro.errors import ExecutionError
from repro.executor.aggregates import AggregateState
from repro.executor.sorts import run_sort_batched
from repro.executor.batch import RowBatch
from repro.expr.compile import compile_expr
from repro.optimizer.logical import Aggregate
from repro.optimizer.physical import Sort
from repro.optimizer.planner import OptimizerConfig
from repro.sql.parser import parse_expression


def _agg(function, argument="v", distinct=False) -> AggregateState:
    spec = Aggregate(
        function=function,
        argument=None if argument is None else parse_expression(argument),
        distinct=distinct,
        output_name="out",
    )
    return AggregateState(spec)


class TestDistinctAggregatesOverEmptyInput:
    """DISTINCT aggregates over zero rows: NULL for SUM/AVG/MIN/MAX, 0 for
    COUNT — through SQL on both executors and on the state directly."""

    @pytest.fixture
    def empty(self, batch_size) -> SoftDB:
        db = SoftDB(OptimizerConfig(batch_size=batch_size))
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.runstats_all()
        return db

    SQL = (
        "SELECT count(DISTINCT b) AS n, sum(DISTINCT b) AS s, "
        "avg(DISTINCT b) AS m, min(DISTINCT b) AS lo, "
        "max(DISTINCT b) AS hi FROM t"
    )

    @pytest.mark.parametrize("batch_size", (0, 1, 1024))
    def test_empty_input(self, empty, batch_size):
        result = empty.execute(self.SQL)
        assert result.tuples() == [(0, None, None, None, None)]

    @pytest.mark.parametrize("batch_size", (0, 2, 1024))
    def test_all_null_input(self, empty, batch_size):
        empty.database.insert_many("t", [(i, None) for i in range(5)])
        result = empty.execute(self.SQL)
        assert result.tuples() == [(0, None, None, None, None)]

    def test_distinct_states_empty(self):
        for function in ("count", "sum", "avg", "min", "max"):
            state = _agg(function, distinct=True)
            expected = 0 if function == "count" else None
            assert state.result() == expected


class TestBatchedAggregateStates:
    """update_values/update_count_star must match per-row update exactly."""

    CASES = [
        ("sum", [1, None, 2, 2, 3], False),
        ("sum", [1, None, 2, 2, 3], True),
        ("avg", [2.0, None, 4.0, 4.0], True),
        ("min", [5, 1, None, 9], False),
        ("max", ["a", "c", None, "b"], False),
        ("count", [None, 7, 7, 8], True),
    ]

    @pytest.mark.parametrize("function,values,distinct", CASES)
    def test_matches_per_row_update(self, function, values, distinct):
        batched = _agg(function, distinct=distinct)
        batched.update_values(values)
        rowwise = _agg(function, distinct=distinct)
        for value in values:
            rowwise.update({"v": value})
        assert batched.result() == rowwise.result()
        assert batched.count == rowwise.count

    def test_split_across_batches(self):
        one = _agg("sum", distinct=True)
        one.update_values([2, 3, 2])
        one.update_values([2, 5, None])
        assert one.result() == 2 + 3 + 5

    def test_count_star_batched(self):
        state = _agg("count", argument=None)
        state.update_count_star(3)
        state.update_count_star(4)
        assert state.result() == 7

    def test_non_numeric_sum_rejected(self):
        state = _agg("sum")
        with pytest.raises(ExecutionError):
            state.update_values([1, "oops"])


class TestOrderByMixedNulls:
    @pytest.fixture
    def db(self, batch_size) -> SoftDB:
        db = SoftDB(OptimizerConfig(batch_size=batch_size))
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.database.insert_many(
            "t",
            [(1, None), (2, 3), (3, None), (4, 1), (5, 3), (6, None), (7, 2)],
        )
        db.runstats_all()
        return db

    @pytest.mark.parametrize("batch_size", (0, 1, 3, 1024))
    def test_ascending_nulls_last(self, db, batch_size):
        result = db.execute("SELECT a, b FROM t ORDER BY b, a")
        assert [row["b"] for row in result.rows] == [
            1, 2, 3, 3, None, None, None,
        ]
        # NULL ties broken by the secondary key.
        assert [row["a"] for row in result.rows][-3:] == [1, 3, 6]

    @pytest.mark.parametrize("batch_size", (0, 2, 1024))
    def test_descending_nulls_first(self, db, batch_size):
        result = db.execute("SELECT a, b FROM t ORDER BY b DESC, a DESC")
        assert [row["b"] for row in result.rows] == [
            None, None, None, 3, 3, 2, 1,
        ]
        assert [row["a"] for row in result.rows][:3] == [6, 3, 1]

    @pytest.mark.parametrize("batch_size", (0, 2, 1024))
    def test_mixed_direction_keys(self, db, batch_size):
        result = db.execute("SELECT a, b FROM t ORDER BY b DESC, a")
        assert [row["a"] for row in result.rows] == [1, 3, 6, 2, 5, 7, 4]

    def test_all_null_key_preserves_input_order(self):
        key = compile_expr(parse_expression("x"))
        node = Sort("child", [(key.expression, True)])
        node.compiled_order = [(key, True)]
        rows = [{"x": None, "tag": t} for t in "abcd"]
        stored = [(row["x"], row["tag"]) for row in rows[2:]]
        batches = [
            RowBatch.from_rows(rows[:2]),
            RowBatch.from_tuples(("x", "tag"), (0, 1), stored),
        ]
        ordered = []
        for batch in run_sort_batched(node, iter(batches), batch_size=3):
            ordered.extend(batch.to_rows())
        assert [row["tag"] for row in ordered] == ["a", "b", "c", "d"]

    def test_empty_input_yields_no_batches(self):
        node = Sort("child", [(parse_expression("x"), True)])
        assert list(run_sort_batched(node, iter(()), batch_size=4)) == []

"""The production executor: mutation guards, LIMIT I/O, aggregate folds.

Covers the contracts of the columnar pipeline: frozen (tuple-backed) join build sides that make aliased
in-place mutation raise instead of corrupting sibling batches, LIMIT
page-read parity with the row-at-a-time oracle, and the numpy aggregate
folds.
"""

import numpy as np
import pytest

from repro import SoftDB
from repro.executor.aggregates import fold_groups
from repro.executor.batch import RowBatch
from repro.executor.runtime import Executor
from repro.executor.vectorized import BatchedInterpreter
from repro.expr.vector import VectorFallback, filter_indices
from repro.optimizer.logical import Aggregate

pytestmark = pytest.mark.differential


def _db(rows=5000):
    db = SoftDB()
    db.execute("CREATE TABLE t (a INT, b INT, c TEXT)")
    db.database.insert_many(
        "t", [(i, i % 13, f"v{i % 5}") for i in range(rows)]
    )
    db.runstats_all()
    return db


# ------------------------------------------------------ mutation guard


class TestFrozenBatches:
    def test_freeze_makes_mutation_raise(self):
        batch = RowBatch(("a",), {"a": [1, 2, 3]})
        batch.freeze()
        with pytest.raises(TypeError):
            batch.data["a"][0] = 99
        with pytest.raises(AttributeError):
            batch.data["a"].append(4)

    def test_frozen_batches_still_slice_take_and_tile(self):
        batch = RowBatch(("a",), {"a": [1, 2, 3]}).freeze()
        assert batch.slice(0, 2).data["a"] == (1, 2)
        taken = batch.take([2, 0]).data["a"]
        assert list(taken) == [3, 1]
        with pytest.raises(TypeError):
            taken[0] = 99

    def test_join_build_side_columns_are_immutable(self):
        # The nested-loop inner side is aliased into every output chunk;
        # an in-place mutation through an emitted batch must raise, not
        # silently corrupt the chunks that share the column.
        db = SoftDB()
        db.execute("CREATE TABLE small (x INT)")
        db.execute("CREATE TABLE big (y INT)")
        db.database.insert_many("small", [(i,) for i in range(2)])
        db.database.insert_many("big", [(i,) for i in range(2000)])
        db.runstats_all()
        plan = db.optimizer.optimize("SELECT small.x, big.y FROM small, big")
        interpreter = BatchedInterpreter(db.database, 1024)
        first = next(iter(interpreter.run(plan.root)))
        aliased = [
            column
            for column in map(first.column, first.columns)
            if isinstance(column, tuple)
        ]
        assert aliased, "expected at least one frozen (aliased) column"
        with pytest.raises(TypeError):
            aliased[0][0] = -1


# ---------------------------------------------- LIMIT I/O accounting


class TestLimitAccounting:
    @pytest.mark.parametrize("batch_size", [1, 3, 64, 1024])
    def test_limit_page_reads_match_oracle(self, batch_size, monkeypatch):
        """Rows, order and I/O under LIMIT equal the oracle — and the
        quota-clamped predicate scans filter through the vector kernels,
        dropping to the interpreter only for a batch a kernel declines
        (here: the one holding ``a = 40``, whose zero divisor only the
        OR's short circuit skips)."""
        from repro.expr import vector

        kernel_calls = []

        def spying_filter(kernel, batch):
            kernel_calls.append(len(batch))
            try:
                return filter_indices(kernel, batch)
            except VectorFallback:
                kernel_calls[-1] = "fallback"
                raise

        monkeypatch.setattr(vector, "filter_indices", spying_filter)
        db = _db()
        for sql, falls_back in (
            ("SELECT a FROM t LIMIT 10", False),
            ("SELECT a FROM t WHERE b < 6 OR a / (a - 40) > 0 LIMIT 25", True),
            ("SELECT a FROM t LIMIT 0", False),
            ("SELECT a, b FROM t WHERE a > 100 LIMIT 4999", False),
        ):
            plan = db.optimizer.optimize(sql)
            oracle = Executor(db.database, batch_size=0).execute(plan)
            del kernel_calls[:]
            batched = Executor(db.database, batch_size=batch_size).execute(
                plan
            )
            context = (sql, batch_size)
            assert batched.tuples() == oracle.tuples(), context
            assert batched.page_reads == oracle.page_reads, context
            assert batched.rows_read == oracle.rows_read, context
            assert bool(kernel_calls) == ("WHERE" in sql), context
            assert ("fallback" in kernel_calls[1:]) == falls_back, context


# ------------------------------------------------- aggregate folds


def _fold(state, values):
    """Scalar aggregation's fold: one group, every row's code 0."""
    fold_groups([[state]], [values], np.zeros(len(values), dtype=np.int64))


class TestUpdateVec:
    """The scalar fold (``fold_groups`` over one group, which replaced
    ``AggregateState.update_vec``) against ``update_values``."""

    def _pair(self, function, distinct=False):
        from repro.executor.aggregates import AggregateState

        spec = Aggregate(
            function=function,
            argument=None,
            distinct=distinct,
            output_name="o",
        )
        return AggregateState(spec), AggregateState(spec)

    @pytest.mark.parametrize(
        "function", ["count", "sum", "avg", "min", "max"]
    )
    def test_int_fold_matches_list_path(self, function):
        values = [5, None, -3, 12, None, 0, 7]
        vec_state, list_state = self._pair(function)
        _fold(vec_state, values)
        list_state.update_values(values)
        assert vec_state.result() == list_state.result()
        assert vec_state.count == list_state.count

    def test_distinct_falls_back(self):
        values = [1, 1, 2, None, 2, 3]
        vec_state, list_state = self._pair("count", distinct=True)
        _fold(vec_state, values)
        list_state.update_values(values)
        assert vec_state.result() == list_state.result() == 3

    def test_mixed_column_keeps_error_parity(self):
        from repro.errors import ExecutionError

        vec_state, list_state = self._pair("sum")
        with pytest.raises(ExecutionError) as vec_err:
            _fold(vec_state, [1, "x"])
        with pytest.raises(ExecutionError) as list_err:
            list_state.update_values([1, "x"])
        assert str(vec_err.value) == str(list_err.value)

    def test_float_sum_keeps_sequential_association(self):
        values = [0.1, 0.2, 0.3, None, 1e16, 1.0, -1e16]
        vec_state, list_state = self._pair("sum")
        _fold(vec_state, values)
        list_state.update_values(values)
        assert vec_state.result() == list_state.result()

    def test_huge_int_sum_exact(self):
        values = [2**61, 2**61, 7]
        vec_state, list_state = self._pair("sum")
        _fold(vec_state, values)
        list_state.update_values(values)
        assert vec_state.result() == list_state.result() == 2**62 + 7

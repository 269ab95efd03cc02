"""The expression compiler against the interpreter oracle.

Every assertion here is differential: the batch closure from
:mod:`repro.expr.compile` — and the kernel-or-closure entry points of
:mod:`repro.expr.vector`, on the kernel path and on a forced fallback
to the closure — must return what :func:`~repro.expr.eval.evaluate`
returns applied to each row, or raise an error one of those rows
raises.  Targeted corpora cover NULL propagation, short-circuit AND/OR,
BETWEEN/IN with NULLs, LIKE edge cases, constant folding (including
deferred fold errors), kernel lowering, and the compile cache.
"""

from unittest import mock

import pytest

from repro.errors import ExpressionError
from repro.executor.batch import RowBatch
from repro.executor.vecbatch import ColumnarBatch
from repro.expr import cache as lowering_cache
from repro.expr import vector
from repro.expr.compile import cache_stats, clear_cache, compile_expr
from repro.expr.eval import evaluate
from repro.expr.vector import VectorFallback, key_columns, kernel_of, select_rows
from repro.sql import ast
from repro.sql.parser import parse_expression


def _batch_of(rows):
    """Column-major batch over the union of the rows' keys."""
    names = []
    for row in rows:
        for name in row:
            if name not in names:
                names.append(name)
    data = {name: [row.get(name) for row in rows] for name in names}
    return RowBatch(tuple(names), data, len(rows))


def _outcome(fn):
    try:
        return ("ok", fn())
    except ExpressionError as error:
        return ("error", str(error))


def assert_batch_parity(expression, batch_fn, batch, context, expect=None):
    """``batch_fn`` agrees with :func:`evaluate` applied per row of ``batch``.

    ``expect`` maps the batch and its per-row values to what ``batch_fn``
    should return (default: the values themselves).  An erroring batch:
    the closure works a column at a time, so it may meet a later row's
    error before an earlier row's.  It must raise iff some row raises,
    and the error must be one a row of the batch raises.
    """
    per_row = [
        _outcome(lambda: evaluate(expression, row)) for row in batch.to_rows()
    ]
    errors = {outcome for outcome in per_row if outcome[0] == "error"}
    got = _outcome(lambda: batch_fn(batch))
    if errors:
        assert got in errors, context
    else:
        values = [value for _, value in per_row]
        expected = values if expect is None else expect(batch, values)
        assert got == ("ok", expected), context


def _kept(batch, values):
    """WHERE semantics: the rows whose value is exactly True."""
    return [row for row, value in zip(batch.to_rows(), values) if value is True]


def _declining(_compiled):
    def kernel(_batch):
        raise VectorFallback("forced")

    return kernel


def assert_parity(text, rows):
    """The batch closure and both kernel-or-closure entry points — kernel
    path and forced fallback — agree with the interpreter on ``rows``."""
    expression = parse_expression(text)
    compiled = compile_expr(expression)
    batch = _batch_of(rows)
    context = f"{text!r} over batch {rows!r}"
    assert_batch_parity(expression, compiled.batch, batch, context)

    def values(batch):
        return key_columns([compiled], batch)[0]

    def kept(batch):
        columnar = ColumnarBatch.from_row_batch(batch)
        return select_rows(compiled, columnar, lambda: batch).to_rows()

    def check(path):
        assert_batch_parity(expression, values, batch, f"{context} {path}")
        assert_batch_parity(
            expression, kept, batch, f"{context} {path}", expect=_kept
        )

    check("kernel")
    with mock.patch.object(vector, "kernel_of", _declining):
        check("fallback")


ROWS = [
    {"a": 1, "b": 2.5, "s": "hello", "flag": True},
    {"a": None, "b": None, "s": None, "flag": None},
    {"a": -7, "b": 0.0, "s": "", "flag": False},
    {"a": 0, "b": 3.0, "s": "h%llo", "flag": True},
]


class TestNullPropagation:
    @pytest.mark.parametrize(
        "text",
        [
            "a + 1",
            "a * b",
            "-a",
            "a = 1",
            "a < b",
            "a <> 3",
            "abs(a)",
            "abs(b) + a",
            "a IS NULL",
            "a IS NOT NULL",
            "NOT (a = 1)",
        ],
    )
    def test_parity(self, text):
        assert_parity(text, ROWS)

    def test_null_comparand_constant(self):
        assert_parity("a = NULL", ROWS)
        assert_parity("s LIKE NULL", ROWS)


class TestShortCircuit:
    def test_false_and_error_is_false(self):
        # The error side must never run when the left is a definite False.
        assert_parity("a > 100 AND 1 / (a - a) = 1", [{"a": 5}])

    def test_true_or_error_is_true(self):
        assert_parity("a < 100 OR 1 / (a - a) = 1", [{"a": 5}])

    def test_unknown_left_still_evaluates_right(self):
        # NULL AND <error> raises (the right side IS evaluated).
        assert_parity("a > 100 AND 1 / 0 = 1", [{"a": None}])

    def test_non_boolean_operand_raises(self):
        assert_parity("a AND flag", ROWS)
        assert_parity("flag OR b", ROWS)

    def test_selection_vector_mixed_batch(self):
        # Rows where the right side would divide by zero are exactly the
        # rows the left side short-circuits away.
        rows = [{"a": 10, "d": 0}, {"a": 1, "d": 2}, {"a": 10, "d": 5}]
        assert_parity("a < 5 AND 10 / d > 1", rows)
        assert_parity("a >= 5 OR 10 / d > 1", rows)


class TestBetweenAndIn:
    @pytest.mark.parametrize(
        "text",
        [
            "a BETWEEN 0 AND 5",
            "a NOT BETWEEN 0 AND 5",
            "a BETWEEN NULL AND 5",
            "a BETWEEN 0 AND NULL",
            "b BETWEEN a AND 10",
            "s BETWEEN 'a' AND 'i'",
            "a IN (1, 2, 3)",
            "a NOT IN (1, 2, 3)",
            "a IN (1, NULL, 3)",
            "a NOT IN (1, NULL)",
            "a IN (NULL)",
            "s IN ('hello', 'x')",
            "a IN (b, 1)",
        ],
    )
    def test_parity(self, text):
        assert_parity(text, ROWS)

    def test_in_set_class_mismatch_raises_like_interpreter(self):
        # bool operand against an all-int list: the interpreter raises at
        # the first comparison; the compiled set fast path must too, with
        # the identical message.
        assert_parity("flag IN (1, 2)", ROWS)
        assert_parity("a IN (NULL, 'x')", ROWS)

    def test_between_incomparable_operand(self):
        assert_parity("s BETWEEN 0 AND 5", ROWS)


class TestLike:
    @pytest.mark.parametrize(
        "text",
        [
            "s LIKE 'h%'",
            "s LIKE '%llo'",
            "s LIKE 'h_llo'",
            "s LIKE ''",
            "s LIKE '%'",
            "s LIKE 'h.llo'",
            "s LIKE 'h[%'",
            "s LIKE s",
            "a LIKE 'x%'",
            "s LIKE 5",
        ],
    )
    def test_parity(self, text):
        assert_parity(text, ROWS)


class TestConstantFolding:
    def test_constants_fold(self):
        compiled = compile_expr(parse_expression("1 + 2 * 3"))
        assert compiled.constant
        assert compiled.value == 7
        assert compiled.batch(_batch_of([{}, {}])) == [7, 7]

    def test_three_valued_folding(self):
        assert compile_expr(parse_expression("NULL + 1")).value is None
        assert compile_expr(parse_expression("1 = 2 AND 1 / 0 = 1")).value is False

    def test_folded_error_defers_to_call_time(self):
        compiled = compile_expr(parse_expression("1 / 0"))
        assert not compiled.constant
        # No row, no evaluation: an empty batch never raises.
        assert compiled.batch(_batch_of([])) == []
        with pytest.raises(ExpressionError, match="division by zero"):
            compiled.batch(_batch_of([{}]))

    def test_column_is_not_constant(self):
        assert not compile_expr(parse_expression("a + 1")).constant

    def test_fold_parity_in_context(self):
        assert_parity("a + (2 * 3 - 6)", ROWS)
        assert_parity("1 / 0 > a", ROWS)


class TestAggregateAndUnknownFunctions:
    def test_aggregate_outside_group_by_raises_everywhere(self):
        assert_parity("sum(a) > 1", [{"a": 1}])

    def test_aggregate_over_empty_batch_is_empty(self):
        # The per-row reference evaluates nothing over no rows.
        assert compile_expr(parse_expression("count(a)")).batch(_batch_of([])) == []

    def test_scalar_function_arity_error_matches(self):
        expression = parse_expression("abs(1, 2)")
        with pytest.raises(TypeError):
            evaluate(expression, {})
        with pytest.raises(TypeError):
            compile_expr(expression).batch(_batch_of([{}]))


class TestKernelLowering:
    def test_kernel_is_lowered_once_and_kept(self):
        clear_cache()
        compiled = compile_expr(parse_expression("a + 1 > b AND a IN (1, 2)"))
        assert compiled.kernel is None
        before = cache_stats()
        kernel = kernel_of(compiled)
        # Lowering walks the compiled operands, not the compile cache.
        assert cache_stats() == before
        assert compiled.kernel is kernel
        assert kernel_of(compiled) is kernel
        # A structurally equal expression is the same object, kernel included.
        again = compile_expr(parse_expression("a + 1 > b AND a IN (1, 2)"))
        assert again is compiled and again.kernel is kernel

    def test_runtime_parameter_kernel_reads_the_live_value(self):
        class Bound:
            name = "mm"
            high = 5

        bound = Bound()
        predicate = ast.BinaryOp(
            "<=", ast.ColumnRef("a"), ast.RuntimeParameter(bound, "high")
        )
        kernel = kernel_of(compile_expr(predicate))
        batch = ColumnarBatch.from_row_batch(_batch_of([{"a": 3}, {"a": 7}]))
        assert kernel(batch).to_list() == [True, False]
        bound.high = 10
        assert kernel(batch).to_list() == [True, True]


class TestColumnResolution:
    def test_qualified_bare_and_ambiguous(self):
        assert_parity("t.a = 1", [{"t.a": 1}, {"a": 1}])
        assert_parity("a = 1", [{"t.a": 1}, {"t.a": 1, "u.a": 2}, {"x": 1}])


class TestCompileCache:
    def test_equal_expressions_share_closures(self):
        clear_cache()
        first = compile_expr(parse_expression("a + 1 > b"))
        hits_before, misses_before = cache_stats()
        second = compile_expr(parse_expression("a + 1 > b"))
        hits_after, misses_after = cache_stats()
        assert second is first
        assert hits_after == hits_before + 1
        assert misses_after == misses_before

    def test_distinct_expressions_do_not_alias(self):
        assert compile_expr(parse_expression("a + 1")) is not compile_expr(
            parse_expression("a + 2")
        )

    def test_clear_cache_resets(self):
        compile_expr(parse_expression("a * 3"))
        clear_cache()
        assert cache_stats() == (0, 0)

    def test_cache_is_bounded_and_eviction_keeps_plans_runnable(self):
        """CAPACITY + 1 distinct literal predicates leave at most CAPACITY
        entries, and a plan compiled before its entries were evicted still
        executes: the closures live on the plan's nodes."""
        from repro import SoftDB
        from repro.expr import compile as compile_module

        db = SoftDB()
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        db.database.insert_many("t", [(i, i % 5) for i in range(50)])
        clear_cache()
        sql = "SELECT a FROM t WHERE b = 3 AND a > 10"
        plan = db.plan(sql)
        predicate = parse_expression("b = 3 AND a > 10")
        before = compile_expr(predicate)
        expected = db.executor.execute(plan).tuples()
        for literal in range(lowering_cache.CAPACITY + 1):
            compile_expr(parse_expression(f"a = {1_000_000 + literal}"))
        assert len(compile_module._CACHE) <= lowering_cache.CAPACITY
        # The plan's predicate was evicted (lowering it again builds a
        # new closure) ...
        assert compile_expr(predicate) is not before
        # ... yet the plan, and a fresh compile of the same query, run.
        assert db.executor.execute(plan).tuples() == expected
        assert db.execute(sql).tuples() == expected

    def test_put_hashes_the_key_once_and_a_replaced_value_is_recent(self):
        class Key:
            hashes = 0

            def __hash__(self):
                Key.hashes += 1
                return 7

        cache = lowering_cache.LoweringCache(2)
        key = Key()
        cache.put(key, "a")
        assert Key.hashes == 1  # an expression node hashes its whole tree
        cache.put("other", "b")
        cache.put(key, "c")  # replaced: now the most recent entry
        cache.put("third", "d")  # past capacity: the oldest entry goes
        assert cache.get(key) == "c"
        assert cache.get("other") is None
        assert len(cache) == 2

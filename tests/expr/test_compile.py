"""Compiled expressions against the interpreter oracle.

Every assertion here is differential: the production entry points of
:mod:`repro.expr.vector` — :func:`value_columns` and :func:`select_rows`,
on the kernel path and on a forced decline to the per-row interpreter —
must return what :func:`~repro.expr.eval.evaluate` returns applied to
each row, or raise the first erroring row's error.  On the kernel path a
batch none of whose rows raises never reaches the interpreter, unless
the case says it declines (a raising row that a short circuit skips).
Targeted corpora cover NULL propagation, short-circuit AND/OR,
BETWEEN/IN with NULLs, LIKE edge cases, the object-dtype branch
(strings, bools, int/float mixes, ints past int64), float ``%``, ``abs``
at the int64 minimum, constant folding (including deferred fold errors),
kernel lowering, and the compile cache.
"""

import math
from unittest import mock

import pytest

from repro.errors import ExpressionError
from repro.executor.batch import RowBatch
from repro.expr import cache as lowering_cache
from repro.expr import vector
from repro.expr.compile import cache_stats, clear_cache, compile_expr
from repro.expr.eval import evaluate
from repro.expr.vector import VectorFallback, kernel_of, select_rows, value_columns
from repro.sql import ast
from repro.sql.parser import parse_expression

INT64_MIN = -(2**63)


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
    """``("ok", repr of the result)`` or ``("error", message)``: repr
    tells 1 from 1.0 and True, and -0.0 from 0.0, and equals NaN."""
    try:
        return ("ok", repr(fn()))
    except ExpressionError as error:
        return ("error", str(error))


def _expected(expression, batch, expect):
    """What production must return over ``batch``: the per-row values
    (mapped by ``expect``), or the first erroring row's error."""
    values = []
    for row in batch.to_rows():
        try:
            values.append(evaluate(expression, row))
        except ExpressionError as error:
            return ("error", str(error))
    return ("ok", repr(values if expect is None else expect(batch, values)))


def _kept(batch, values):
    """WHERE semantics: the rows whose value is exactly True."""
    return [row for row, value in zip(batch.to_rows(), values) if value is True]


def _declining(_compiled):
    def kernel(_batch):
        raise VectorFallback("forced")

    return kernel


def _values(compiled, batch):
    return value_columns([compiled], batch)[0]


def _selected(compiled, batch):
    return select_rows(compiled, batch).to_rows()


def assert_parity(text, rows, declines=False):
    """Both production entry points — kernel path and forced decline —
    agree with the interpreter on ``rows``.  On the kernel path a batch
    with no erroring row reaches the interpreter only if ``declines``."""
    expression = parse_expression(text)
    compiled = compile_expr(expression)
    batch = _batch_of(rows)
    context = f"{text!r} over batch {rows!r}"
    values = _expected(expression, batch, None)
    kept = _expected(expression, batch, _kept)

    def check(path):
        assert _outcome(lambda: _values(compiled, batch)) == values, (context, path)
        assert _outcome(lambda: _selected(compiled, batch)) == kept, (context, path)

    interpreted = []
    interpret = vector._interpret

    def spying(compiled_list, rows_batch):
        interpreted.append(len(rows_batch))
        return interpret(compiled_list, rows_batch)

    with mock.patch.object(vector, "_interpret", spying):
        check("kernel")
    if values[0] == "ok":
        assert bool(interpreted) == declines, (context, interpreted)
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
        assert_parity("a > 100 AND 1 / (a - a) = 1", [{"a": 5}], declines=True)

    def test_true_or_error_is_true(self):
        assert_parity("a < 100 OR 1 / (a - a) = 1", [{"a": 5}], declines=True)

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
        assert_parity("a < 5 AND 10 / d > 1", rows, declines=True)
        assert_parity("a >= 5 OR 10 / d > 1", rows, declines=True)

    def test_class_mismatch_behind_the_short_circuit(self):
        # Only rows that the left side decides compare a string with a
        # number: the kernel declines, the interpreter skips them.
        rows = [{"k": 1, "v": 5}, {"k": 2, "v": "x"}, {"k": 3, "v": None}]
        assert_parity("k = 2 OR v > 3", rows, declines=True)
        assert_parity("k <> 2 AND v > 3", rows, declines=True)
        assert_parity("NOT (k = 2) AND v > 3", rows, declines=True)
        # Without the short circuit the same batch raises at row 2.
        assert_parity("k = 1 OR v > 3", rows)


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
        # the first comparison; production must too, with the identical
        # message.
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
        assert _values(compiled, _batch_of([{}, {}])) == [7, 7]

    def test_three_valued_folding(self):
        assert compile_expr(parse_expression("NULL + 1")).value is None
        assert compile_expr(parse_expression("1 = 2 AND 1 / 0 = 1")).value is False

    def test_folded_error_defers_to_call_time(self):
        compiled = compile_expr(parse_expression("1 / 0"))
        assert not compiled.constant
        assert compiled.children is None  # no kernel: the interpreter raises
        # No row, no evaluation: an empty batch never raises.
        assert _values(compiled, _batch_of([])) == []
        with pytest.raises(ExpressionError, match="division by zero"):
            _values(compiled, _batch_of([{}]))

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
        assert _values(compile_expr(parse_expression("count(a)")), _batch_of([])) == []

    def test_scalar_function_arity_error_matches(self):
        expression = parse_expression("abs(1, 2)")
        with pytest.raises(TypeError):
            evaluate(expression, {})
        with pytest.raises(TypeError):
            _values(compile_expr(expression), _batch_of([{}]))


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
        batch = _batch_of([{"a": 3}, {"a": 7}])
        assert kernel(batch).to_list() == [True, False]
        bound.high = 10
        assert kernel(batch).to_list() == [True, True]


class TestColumnResolution:
    def test_qualified_bare_and_ambiguous(self):
        assert_parity("t.a = 1", [{"t.a": 1}, {"a": 1}])
        assert_parity("a = 1", [{"t.a": 1}, {"t.a": 1, "u.a": 2}, {"x": 1}])


#: Columns numpy cannot hold as int64/float64: strings, bools, dates,
#: int/float mixes and ints past int64.
OBJECT_ROWS = [
    {"s": "pear", "t": "apple", "flag": True, "m": 1, "n": 2.5, "w": 2**70},
    {"s": None, "t": "fig", "flag": None, "m": None, "n": -1, "w": None},
    {"s": "fig", "t": "fig", "flag": False, "m": 2.5, "n": 2, "w": -(2**70)},
    {"s": "", "t": None, "flag": True, "m": -3, "n": None, "w": 7},
    {"s": "apple", "t": "pear", "flag": False, "m": 2**53 + 1, "n": 2.0**53, "w": 0},
]


class TestObjectDtypeBranch:
    """The kernels' element-by-element branch: the interpreter's own
    operators after one class check per batch, never the interpreter."""

    @pytest.mark.parametrize(
        "text",
        [
            "s = 'fig'",
            "s < t",
            "s >= 'b'",
            "s <> t",
            "s BETWEEN 'a' AND 'g'",
            "s IN ('fig', 'pear')",
            "s NOT IN ('fig', NULL)",
            "s IN (t, 'x')",
            "s LIKE t",
            "flag",
            "NOT flag",
            "flag AND s = 'fig'",
            "flag OR m > 2",
            "flag = TRUE",
            "flag <> (m > 1)",
            "flag IS NULL",
            "abs(flag)",
            "m = n",
            "m < n",
            "m + n",
            "m - 1",
            "m * n",
            "m / n",
            "m % 2",
            "-m",
            "abs(m)",
            "m IN (1, 2.5)",
            "m BETWEEN -3 AND 2.5",
            "w + 1",
            "w * w",
            "w / 3",
            "-w",
            "abs(w)",
            "w > m",
            "w IN (7, 0)",
        ],
    )
    def test_parity(self, text):
        assert_parity(text, OBJECT_ROWS)

    def test_dates(self):
        import datetime

        rows = [
            {"d": datetime.date(2001, 5, 1), "e": datetime.date(2001, 1, 1)},
            {"d": None, "e": datetime.date(1999, 1, 1)},
            {"d": datetime.date(1998, 2, 3), "e": datetime.date(1998, 2, 3)},
        ]
        assert_parity("d > e", rows)
        assert_parity("d = e OR d IS NULL", rows)

    @pytest.mark.parametrize(
        "text",
        [
            "s = 1",
            "s + 1",
            "-s",
            "flag AND s",
            "s IN (1, 2)",
            "m LIKE 'x'",
            "flag > 1",
        ],
    )
    def test_class_mismatch_raises_the_first_rows_error(self, text):
        assert_parity(text, OBJECT_ROWS)

    def test_erroring_row_after_a_good_one(self):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 0}, {"a": "x", "b": 1}]
        assert_parity("a / b", rows)
        assert_parity("a % b > 0 OR a = 'x'", rows)


FLOAT_MOD_ROWS = [
    {"x": 5.5, "y": -2.0},
    {"x": -5.5, "y": 2.0},
    {"x": -5.5, "y": -2.0},
    {"x": -0.0, "y": 3.0},
    {"x": 0.0, "y": -3.0},
    {"x": 6.0, "y": -3.0},
    {"x": -6.0, "y": 3.0},
    {"x": float("nan"), "y": 2.0},
    {"x": 2.0, "y": float("nan")},
    {"x": float("inf"), "y": 2.0},
    {"x": 2.0, "y": float("inf")},
    {"x": -2.0, "y": float("inf")},
    {"x": 2.0, "y": float("-inf")},
    {"x": 1e300, "y": 7.0},
    {"x": None, "y": 0.0},
]


class TestFloatModulo:
    def test_matches_python(self):
        assert_parity("x % y", FLOAT_MOD_ROWS)
        assert_parity("x % 2.5", FLOAT_MOD_ROWS)
        assert_parity("x % -2.5", FLOAT_MOD_ROWS)

    def test_signed_zeros(self):
        batch = _batch_of(FLOAT_MOD_ROWS)
        values = _values(compile_expr(parse_expression("x % y")), batch)
        assert [math.copysign(1.0, v) for v in values[3:7]] == [1.0, -1.0, -1.0, 1.0]

    def test_zero_divisor_raises(self):
        rows = [{"x": 1.0, "y": 2.0}, {"x": 3.5, "y": 0.0}, {"x": 4.0, "y": -0.0}]
        assert_parity("x % y", rows)
        assert_parity("x % 0.0", rows)
        assert_parity("x % -0.0", rows)

    def test_int_float_mix(self):
        assert_parity("x % 3", FLOAT_MOD_ROWS)
        assert_parity("a % b", [{"a": 7, "b": -2.5}, {"a": -7, "b": 2.5}, {"a": 9, "b": 3.0}])


class TestIntLimits:
    ROWS = [{"a": INT64_MIN}, {"a": 5}, {"a": None}, {"a": -(2**62)}]

    @pytest.mark.parametrize("text", ["abs(a)", "-a", "a - 1", "a * 2", "a / -1", "a % 3"])
    def test_parity(self, text):
        assert_parity(text, self.ROWS)

    def test_abs_of_the_minimum_is_exact(self):
        values = _values(compile_expr(parse_expression("abs(a)")), _batch_of(self.ROWS))
        assert values == [2**63, 5, None, 2**62]
        assert type(values[0]) is int

    def test_wide_int_against_float_compares_exactly(self):
        rows = [{"a": 2**53 + 1, "f": 2.0**53}, {"a": 3, "f": 3.0}]
        assert_parity("a = f", rows)
        assert_parity("a > f", rows)
        assert_parity("a IN (9007199254740992.0)", rows)


class TestEntryPoints:
    def test_columns_are_the_batchs_own_lists(self):
        batch = _batch_of([{"t.a": 1, "b": 2}, {"t.a": 3, "b": 4}])
        a, b = value_columns(
            [compile_expr(parse_expression("a")), compile_expr(parse_expression("t.b"))],
            batch,
        )
        assert a is batch.data["t.a"] and b is batch.data["b"]

    def test_none_entries_stay_none(self):
        batch = _batch_of([{"a": 1}])
        assert value_columns([None, compile_expr(parse_expression("a + 1"))], batch) == [
            None,
            [2],
        ]

    def test_a_declined_batch_raises_its_first_rows_error_across_expressions(self):
        # Row 2 raises in ``1 / a``, row 3 in ``-b``: whichever expression
        # comes first, row 2's error is the one raised.
        batch = _batch_of([{"a": 1, "b": 1}, {"a": 0, "b": 1}, {"a": 1, "b": "x"}])
        compiled = [
            compile_expr(parse_expression("-b")),
            compile_expr(parse_expression("1 / a")),
        ]
        for order in (compiled, compiled[::-1]):
            with pytest.raises(ExpressionError, match="division by zero"):
                value_columns(order, batch)


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
        executes: the compiled expressions live on the plan's nodes."""
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
        # new compiled expression) ...
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

"""The vector (columnar) expression kernels against the interpreter.

Every assertion is differential: the reference is the row interpreter
(:func:`~repro.expr.eval.evaluate`) applied to each row of the batch,
and a compiled expression's kernel and the production entry point
:func:`~repro.expr.vector.value_columns` must both reproduce it without
ever reaching the per-row interpreter.  No batch here errors under the
reference (a kernel never raises an expression error, it declines;
``tests/expr/test_compile.py`` states how an erroring batch is
compared, and runs the declined path).  Targeted corpora cover
NULL-vs-NaN distinctness, the object-dtype branch for mixed-type
columns, empty batches, 3VL constant folding, and the dtype-promotion
rules of :mod:`repro.executor.vecbatch`.
"""

import math
from unittest import mock

import numpy as np
import pytest

from repro.executor.batch import RowBatch
from repro.executor.vecbatch import promote
from repro.expr.compile import compile_expr
from repro.expr.eval import evaluate
from repro.expr import vector
from repro.expr.vector import VectorFallback, filter_indices, kernel_of, value_columns
from repro.sql.parser import parse_expression


def _kernel(expression):
    return kernel_of(compile_expr(expression))


def _kernel_values(expression, batch):
    """Kernel-evaluate ``expression``: plain values, None at masked slots."""
    return _kernel(expression)(batch).to_list()


def _batch(rows):
    return RowBatch.from_rows(rows)


def _same(left, right):
    """Value equality that treats NaN as equal to itself (for parity)."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if isinstance(a, float) and isinstance(b, float):
            if math.isnan(a) and math.isnan(b):
                continue
        if a is None or b is None:
            if a is not b:
                return False
            continue
        if a != b or type(a) is not type(b):
            return False
    return True


def _no_interpreter(_compiled, _batch):
    raise AssertionError("a valid batch reached the per-row interpreter")


def assert_kernel_parity(text, rows):
    """The vector kernel and :func:`value_columns` must both agree with
    ``evaluate`` applied per row on ``text``, on the kernel path."""
    expression = parse_expression(text)
    batch = _batch(rows)
    row_results = [evaluate(expression, row) for row in batch.to_rows()]
    with mock.patch.object(vector, "_interpret", _no_interpreter):
        (production,) = value_columns([compile_expr(expression)], batch)
    vec_results = _kernel_values(expression, _batch(rows))
    assert _same(production, row_results), text
    assert _same(vec_results, row_results), text


# ------------------------------------------------------- NULL vs NaN


class TestNullVersusNan:
    ROWS = [
        {"b": 1.5},
        {"b": None},
        {"b": float("nan")},
        {"b": -0.0},
    ]

    def test_is_null_sees_only_none(self):
        assert _kernel_values(
            parse_expression("b IS NULL"), _batch(self.ROWS)
        ) == [False, True, False, False]

    def test_is_not_null(self):
        assert_kernel_parity("b IS NOT NULL", self.ROWS)

    def test_nan_compares_false_null_compares_null(self):
        # NaN = NaN is False (IEEE), NULL = NULL is NULL (3VL) — the
        # mask must keep the two regimes apart.
        assert _kernel_values(
            parse_expression("b = b"), _batch(self.ROWS)
        ) == [True, None, False, True]

    def test_comparison_parity(self):
        for text in ("b > 0.0", "b <= 1.5", "b <> b", "b = 1.5"):
            assert_kernel_parity(text, self.ROWS)


# ---------------------------------------------- object-dtype columns


class TestMixedTypeFallback:
    def test_mixed_int_string_column_is_object(self):
        vec = promote([1, "x", 3])
        assert vec.values.dtype.kind == "O"

    def test_mixed_int_float_column_is_object(self):
        # Promoting [1, 2.5] to float64 would change materialized values
        # (1 -> 1.0) and lose precision past 2**53; the columnar layer
        # must keep the Python objects instead.
        vec = promote([1, 2.5])
        assert vec.values.dtype.kind == "O"
        assert vec.to_list() == [1, 2.5]

    def test_bool_column_is_object(self):
        assert promote([True, False]).values.dtype.kind == "O"

    def test_huge_int_column_is_object(self):
        vec = promote([2**70, 1])
        assert vec.values.dtype.kind == "O"
        assert vec.to_list() == [2**70, 1]

    def test_numeric_kernel_falls_back_on_object_column(self):
        rows = [{"a": 1}, {"a": "x"}]
        kernel = _kernel(parse_expression("a + 1"))
        with pytest.raises(VectorFallback):
            kernel(_batch(rows))

    def test_filter_keeps_only_true_of_an_object_predicate(self):
        # As RowBatch.filter_true: non-boolean values drop silently.
        kernel = _kernel(parse_expression("a"))
        strings = [{"a": "x"}, {"a": "y"}]
        assert list(filter_indices(kernel, _batch(strings))) == []
        flags = [{"a": True}, {"a": None}, {"a": False}, {"a": True}]
        assert list(filter_indices(kernel, _batch(flags))) == [0, 3]

    def test_string_equality_and_like_run_on_the_kernel(self):
        rows = [{"c": "apple"}, {"c": None}, {"c": "apricot"}]
        assert _kernel_values(
            parse_expression("c = 'apple'"), _batch(rows)
        ) == [True, None, False]
        assert _kernel_values(
            parse_expression("c LIKE 'ap%'"), _batch(rows)
        ) == [True, None, True]
        assert_kernel_parity("c = 'apple'", rows)
        assert_kernel_parity("c < 'b'", rows)

    def test_all_null_column_stays_null(self):
        rows = [{"a": None}, {"a": None}]
        assert _kernel_values(
            parse_expression("a + 1"), _batch(rows)
        ) == [None, None]


# ------------------------------------------------------ empty batches


class TestEmptyBatches:
    EMPTY = [
        "a + 1",
        "a = 1",
        "a > 1 AND a < 5",
        "a IS NULL",
        "a IN (1, 2)",
        "a BETWEEN 1 AND 2",
        "-a",
    ]

    def test_kernels_return_empty(self):
        batch = RowBatch(("a",), {"a": []}, 0)
        for text in self.EMPTY:
            assert _kernel_values(parse_expression(text), batch) == [], text

    def test_filter_indices_empty(self):
        batch = RowBatch(("a",), {"a": []}, 0)
        kernel = _kernel(parse_expression("a = 1"))
        indices = filter_indices(kernel, batch)
        assert indices is None or len(indices) == 0


# ------------------------------------------- 3VL constant-fold parity


#: Constant 3VL expressions: compilation folds them, the kernel
#: broadcasts the folded constant — kernel, entry point and interpreter
#: must agree elementwise.
CONSTANT_3VL = [
    "1 = 1 AND NULL",
    "1 = 2 AND NULL",
    "NULL AND NULL",
    "1 = 1 OR NULL",
    "1 = 2 OR NULL",
    "NOT NULL",
    "NULL + 1",
    "NULL = NULL",
    "NULL IS NULL",
    "NULL IS NOT NULL",
    "1 IN (1, NULL)",
    "2 IN (1, NULL)",
    "NULL IN (1, 2)",
    "NULL BETWEEN 1 AND 2",
    "2 BETWEEN NULL AND 3",
    "2 BETWEEN NULL AND 1",
]


@pytest.mark.parametrize("text", CONSTANT_3VL)
def test_constant_3vl_parity(text):
    rows = [{"a": 1}, {"a": 2}, {"a": None}]
    assert_kernel_parity(text, rows)


# ----------------------------------------------- mixed-operator parity


PARITY_ROWS = [
    {"a": 4, "b": 2, "f": 1.5, "s": "alpha"},
    {"a": -7, "b": 3, "f": -0.5, "s": "beta"},
    {"a": None, "b": 4, "f": None, "s": None},
    {"a": 9, "b": None, "f": 2.25, "s": "gamma"},
    {"a": 0, "b": -2, "f": 0.0, "s": "alphabet"},
]

PARITY_EXPRESSIONS = [
    "a + b",
    "a - b * 2",
    "a / b",          # int division truncates toward zero
    "a % b",
    "-a",
    "a * b + 1",
    "f * 2.0",
    "f / 0.5",
    "a = b",
    "a <> b",
    "a < b",
    "a >= b",
    "f > 0.0",
    "a > b AND f > 0.0",
    "a > b OR f > 0.0",
    "NOT (a > b)",
    "a BETWEEN -5 AND 5",
    "a NOT BETWEEN 0 AND 5",
    "a IN (4, 9)",
    "a NOT IN (4, 9)",
    "a IN (4, NULL)",
    "b IS NULL",
    "s IS NOT NULL",
    "s LIKE 'alpha%'",
    "s LIKE '%a'",
    "s NOT LIKE 'b_ta'",
]


@pytest.mark.parametrize("text", PARITY_EXPRESSIONS)
def test_operator_parity(text):
    assert_kernel_parity(text, PARITY_ROWS)


def test_int_division_truncates_toward_zero():
    rows = [
        {"a": 7, "b": 2},
        {"a": -7, "b": 2},
        {"a": 7, "b": -2},
        {"a": -7, "b": -2},
    ]
    assert _kernel_values(
        parse_expression("a / b"), _batch(rows)
    ) == [3, -3, -3, 3]
    assert_kernel_parity("a / b", rows)


def test_division_by_zero_falls_back():
    rows = [{"a": 1, "b": 0}]
    kernel = _kernel(parse_expression("a / b"))
    with pytest.raises(VectorFallback):
        kernel(_batch(rows))


def test_null_divisor_does_not_fall_back():
    # Row semantics return NULL before the zero check; the kernel must
    # not treat the masked slot's 0 filler as a real zero divisor.
    rows = [{"a": 1, "b": None}, {"a": 8, "b": 2}]
    assert _kernel_values(
        parse_expression("a / b"), _batch(rows)
    ) == [None, 4]


# ------------------------------------------------------ promotion rules


class TestPromotion:
    def test_int_column(self):
        vec = promote([1, 2, 3])
        assert vec.values.dtype == np.int64
        assert vec.mask is None

    def test_int_with_nulls_masked(self):
        vec = promote([1, None, 3])
        assert vec.values.dtype == np.int64
        assert list(vec.mask) == [False, True, False]
        assert vec.to_list() == [1, None, 3]

    def test_all_null_fully_masked(self):
        vec = promote([None, None])
        assert vec.mask.all()
        assert vec.to_list() == [None, None]

    def test_float_with_nulls(self):
        vec = promote([1.5, None])
        assert vec.values.dtype == np.float64
        assert vec.to_list() == [1.5, None]

    def test_value_arrays_frozen(self):
        vec = promote([1, 2, 3])
        with pytest.raises(ValueError):
            vec.values[0] = 9


# -------------------------------------------------- filter semantics


def test_filter_indices_non_boolean_numeric_drops_all():
    # WHERE <int column> keeps only rows whose value ``is True`` — i.e.
    # none — in the row pipeline; the vector filter must agree, not
    # raise.
    rows = [{"a": 1}, {"a": 0}]
    kernel = _kernel(parse_expression("a"))
    indices = filter_indices(kernel, _batch(rows))
    assert indices is not None and len(indices) == 0


def test_filter_indices_all_true_returns_none():
    rows = [{"a": 1}, {"a": 2}]
    kernel = _kernel(parse_expression("a > 0"))
    assert filter_indices(kernel, _batch(rows)) is None


def test_filter_indices_partial():
    rows = [{"a": 1}, {"a": None}, {"a": 5}]
    kernel = _kernel(parse_expression("a > 2"))
    indices = filter_indices(kernel, _batch(rows))
    assert list(indices) == [2]

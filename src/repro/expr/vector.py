"""The second expression lowering target: vectorized numpy kernels.

:func:`compile_vector` lowers an :class:`~repro.sql.ast.Expression` into
a kernel ``Callable[[ColumnarBatch], Vec]`` that evaluates the whole
column at once with numpy — comparisons, arithmetic, ``IN`` via
``np.isin``, ``LIKE`` over object arrays, and masked Kleene (3VL)
AND/OR — alongside the row and batch closures of
:mod:`repro.expr.compile`.

Parity contract
---------------

The interpreter in :mod:`repro.expr.eval` remains the semantic oracle.
A kernel **never approximates**: whenever full-width numpy evaluation
cannot reproduce the interpreter bit-for-bit — object-dtype columns,
type-mismatch errors, division by zero, int64 overflow risk, lossy
int64→float64 casts past ``2**53``, non-constant ``IN``/``LIKE``
operands, unknown functions — the kernel raises :class:`VectorFallback`
(at compile time when the shape is statically unsupported, at run time
when the data decides) and the caller re-evaluates the batch through the
compiled list closure, which raises the error.  Because kernels themselves never raise
``ExpressionError``, full-width evaluation of ``AND``/``OR`` operands is
safe: a side that *could* error on a row the other side's short-circuit
would have skipped always falls back instead, and the list closure's
selection-vector evaluation reproduces the skip exactly.

Like :mod:`repro.expr.compile`, kernels are shared through a bounded
module-level :class:`~repro.expr.cache.LoweringCache` keyed structurally
by the expression node.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.executor.vecbatch import FLOAT_EXACT_INT, ColumnarBatch, Vec
from repro.expr.cache import LoweringCache
from repro.expr.compile import compile_expr
from repro.expr.eval import _like_regex
from repro.sql import ast

VectorFn = Callable[[ColumnarBatch], Vec]

#: int arithmetic operands are bounded well inside int64 so that +, -,
#: and (pairwise-bounded) * can never wrap; anything bigger falls back.
_INT_SAFE = 2**62


class VectorFallback(Exception):
    """The vector kernel cannot reproduce interpreter semantics for this
    expression/batch; the caller must re-evaluate via the list closure."""


# ------------------------------------------------------------ kernel cache

_CACHE = LoweringCache()


def compile_vector(expression: ast.Expression) -> VectorFn:
    """Lower ``expression`` to a columnar kernel (cached structurally)."""
    return _CACHE.get_or_build(expression, _compile)


def cache_stats() -> Tuple[int, int]:
    return _CACHE.stats()


def clear_cache() -> None:
    _CACHE.clear()


# ------------------------------------------------------------- entry points


def filter_indices(
    kernel: VectorFn, batch: ColumnarBatch
) -> Optional[np.ndarray]:
    """Surviving row indices for a predicate kernel, or ``None`` when
    every row passes (so callers can keep the whole batch unsliced).

    Mirrors ``RowBatch.filter_true``: only a definite ``True`` keeps a
    row — NULLs drop, and (like the row pipeline) non-boolean predicate
    values drop silently rather than raising.
    """
    vector = kernel(batch)
    values = vector.values
    if values.dtype != np.bool_:
        if values.dtype.kind in ("i", "f"):
            # Numeric predicate: no value ``is True`` → no survivors.
            return np.empty(0, dtype=np.intp)
        raise VectorFallback("non-boolean predicate dtype")
    keep = values if vector.mask is None else values & ~vector.mask
    if keep.all():
        return None
    return np.flatnonzero(keep)


def vector_values(
    expression: ast.Expression, batch: ColumnarBatch
) -> List[Any]:
    """Kernel-evaluate ``expression`` and return plain Python values
    (``None`` at masked slots) — the tests' parity hook."""
    return compile_vector(expression)(batch).to_list()


# ----------------------------------------------------------------- helpers


def _static_fallback(reason: str) -> VectorFn:
    def kernel(batch: ColumnarBatch) -> Vec:
        raise VectorFallback(reason)

    return kernel


def _all_null(length: int) -> Vec:
    return Vec(np.zeros(length, dtype=bool), np.ones(length, dtype=bool))


def _fully_masked(vector: Vec) -> bool:
    return (
        vector.mask is not None
        and len(vector.mask) > 0
        and bool(vector.mask.all())
    )


def _union_mask(
    left: Optional[np.ndarray], right: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    if left is None:
        return right
    if right is None:
        return left
    return left | right


def _broadcast(value: Any, length: int) -> Vec:
    """A constant as a full-width Vec; raises VectorFallback for values
    no kernel consumes (the list closure handles them)."""
    if value is None:
        return _all_null(length)
    if isinstance(value, bool):
        return Vec(np.full(length, value, dtype=bool))
    if isinstance(value, int):
        if abs(value) >= 2**63:
            raise VectorFallback("constant outside int64")
        return Vec(np.full(length, value, dtype=np.int64))
    if isinstance(value, float):
        return Vec(np.full(length, value, dtype=np.float64))
    if isinstance(value, str):
        array = np.empty(length, dtype=object)
        array[:] = value
        return Vec(array)
    raise VectorFallback(f"unsupported constant {value!r}")


def _int_bounds(values: np.ndarray) -> int:
    """max(|v|) of an int64 array as an exact Python int (0 if empty)."""
    if values.size == 0:
        return 0
    return max(abs(int(values.min())), abs(int(values.max())))


def _check_mixed_exact(left: Vec, right: Vec) -> None:
    """Mixing int64 with float64 promotes the ints through a lossy cast;
    only allow it when every int is exactly representable as a double."""
    lk, rk = left.values.dtype.kind, right.values.dtype.kind
    if lk == "i" and rk == "f" and _int_bounds(left.values) > FLOAT_EXACT_INT:
        raise VectorFallback("int64 column too wide for exact float compare")
    if rk == "i" and lk == "f" and _int_bounds(right.values) > FLOAT_EXACT_INT:
        raise VectorFallback("int64 column too wide for exact float compare")


def _require_numeric(left: Vec, right: Vec) -> None:
    if left.values.dtype.kind not in ("i", "f") or right.values.dtype.kind not in (
        "i",
        "f",
    ):
        raise VectorFallback("non-numeric operand dtype")
    _check_mixed_exact(left, right)


def _bool_flags(vector: Vec) -> Tuple[np.ndarray, np.ndarray]:
    """(definitely-True, definitely-False) flags of a boolean Vec."""
    if vector.mask is None:
        return vector.values, ~vector.values
    known = ~vector.mask
    return vector.values & known, ~vector.values & known


def _require_bool(vector: Vec) -> None:
    if vector.values.dtype != np.bool_:
        raise VectorFallback("non-boolean operand dtype")


# ------------------------------------------------------------ node kernels


def _compile(expression: ast.Expression) -> VectorFn:
    compiled = compile_expr(expression)
    if compiled.constant:
        value = compiled.value

        def constant_kernel(batch: ColumnarBatch) -> Vec:
            return _broadcast(value, batch.length)

        return constant_kernel
    handler = _DISPATCH.get(type(expression))
    if handler is None:
        return _static_fallback(
            f"no vector lowering for {type(expression).__name__}"
        )
    return handler(expression)


def _compile_column(node: ast.ColumnRef) -> VectorFn:
    if node.table is not None:
        qualified = f"{node.table}.{node.column}"
        bare = node.column

        def qualified_kernel(batch: ColumnarBatch) -> Vec:
            vector = batch.vec(qualified)
            if vector is None:
                vector = batch.vec(bare)
            if vector is None:
                raise VectorFallback(f"unknown column {qualified!r}")
            return vector

        return qualified_kernel
    bare = node.column
    suffix = f".{node.column}"

    def bare_kernel(batch: ColumnarBatch) -> Vec:
        vector = batch.vec(bare)
        if vector is not None:
            return vector
        matches = [name for name in batch.columns if name.endswith(suffix)]
        if len(matches) != 1:
            # Ambiguous / unknown: the list closure raises the exact error.
            raise VectorFallback(f"unresolvable column {bare!r}")
        return batch.vec(matches[0])

    return bare_kernel


def _compile_runtime_parameter(node: ast.RuntimeParameter) -> VectorFn:
    def parameter_kernel(batch: ColumnarBatch) -> Vec:
        # Read the live constraint value on every call: plans built on
        # runtime parameters must see value-changing repairs.
        return _broadcast(node.current_value(), batch.length)

    return parameter_kernel


def _compile_literal(node: ast.Literal) -> VectorFn:
    value = node.value

    def literal_kernel(batch: ColumnarBatch) -> Vec:
        return _broadcast(value, batch.length)

    return literal_kernel


_COMPARISON_UFUNCS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _comparison_kernel(
    left_fn: VectorFn, right_fn: VectorFn, ufunc: Any
) -> VectorFn:
    def kernel(batch: ColumnarBatch) -> Vec:
        left = left_fn(batch)
        right = right_fn(batch)
        if _fully_masked(left) or _fully_masked(right):
            return _all_null(batch.length)
        _require_numeric(left, right)
        return Vec(
            ufunc(left.values, right.values),
            _union_mask(left.mask, right.mask),
        )

    return kernel


def _arith_int(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        # SQL integer division truncates toward zero; numpy floors.
        quotient = np.floor_divide(a, b)
        remainder = a - quotient * b
        return quotient + ((remainder != 0) & ((a < 0) != (b < 0)))
    return np.mod(a, b)  # matches Python % sign-of-divisor for ints


def _arithmetic_kernel(
    op: str, left_fn: VectorFn, right_fn: VectorFn
) -> VectorFn:
    def kernel(batch: ColumnarBatch) -> Vec:
        left = left_fn(batch)
        right = right_fn(batch)
        if _fully_masked(left) or _fully_masked(right):
            return _all_null(batch.length)
        _require_numeric(left, right)
        mask = _union_mask(left.mask, right.mask)
        a, b = left.values, right.values
        both_int = a.dtype.kind == "i" and b.dtype.kind == "i"
        if both_int:
            bound_left = _int_bounds(a)
            bound_right = _int_bounds(b)
            if bound_left >= _INT_SAFE or bound_right >= _INT_SAFE:
                raise VectorFallback("int64 overflow risk")
            if op == "*" and bound_left * bound_right >= _INT_SAFE:
                raise VectorFallback("int64 overflow risk")
        elif op == "%":
            # Float modulo precision is not pinned to CPython's; fall back.
            raise VectorFallback("float modulo")
        if op in ("/", "%"):
            live = (b == 0) if mask is None else ((b == 0) & ~mask)
            if live.any():
                # The list closure raises "division by zero" at the row.
                raise VectorFallback("zero divisor")
            if mask is not None:
                # Masked filler zeros would still trip numpy warnings.
                b = np.where(mask, 1, b)
            if op == "/" and not both_int:
                return Vec(np.true_divide(a, b), mask)
        if both_int:
            return Vec(_arith_int(op, a, b), mask)
        if op == "+":
            return Vec(a + b, mask)
        if op == "-":
            return Vec(a - b, mask)
        if op == "*":
            return Vec(a * b, mask)
        return Vec(np.true_divide(a, b), mask)

    return kernel


def _kleene_and(left: Vec, right: Vec) -> Vec:
    left_true, left_false = _bool_flags(left)
    right_true, right_false = _bool_flags(right)
    false = left_false | right_false
    true = left_true & right_true
    unknown = ~(false | true)
    return Vec(true, unknown if unknown.any() else None)


def _kleene_or(left: Vec, right: Vec) -> Vec:
    left_true, left_false = _bool_flags(left)
    right_true, right_false = _bool_flags(right)
    true = left_true | right_true
    false = left_false & right_false
    unknown = ~(false | true)
    return Vec(true, unknown if unknown.any() else None)


def _logical_kernel(
    op: str, left_fn: VectorFn, right_fn: VectorFn
) -> VectorFn:
    combine = _kleene_and if op == "and" else _kleene_or

    def kernel(batch: ColumnarBatch) -> Vec:
        # Both sides full-width: legal because kernels never raise the
        # per-row errors short-circuiting would have skipped — a side
        # that could raise falls back, taking the whole expression with
        # it to the selection-vector list closure.
        left = left_fn(batch)
        right = right_fn(batch)
        _require_bool(left)
        _require_bool(right)
        return combine(left, right)

    return kernel


def _compile_binary(node: ast.BinaryOp) -> VectorFn:
    op = node.op
    if op in ("and", "or"):
        return _logical_kernel(
            op, compile_vector(node.left), compile_vector(node.right)
        )
    if op == "like":
        return _compile_like(node)
    left_fn = compile_vector(node.left)
    right_fn = compile_vector(node.right)
    ufunc = _COMPARISON_UFUNCS.get(op)
    if ufunc is not None:
        return _comparison_kernel(left_fn, right_fn, ufunc)
    if op in ("+", "-", "*", "/", "%"):
        return _arithmetic_kernel(op, left_fn, right_fn)
    return _static_fallback(f"unknown operator {op!r}")


def _compile_like(node: ast.BinaryOp) -> VectorFn:
    pattern_compiled = compile_expr(node.right)
    if not pattern_compiled.constant:
        return _static_fallback("non-constant LIKE pattern")
    pattern = pattern_compiled.value
    if pattern is not None and not isinstance(pattern, str):
        # Every non-NULL operand row raises; the list closure does that.
        return _static_fallback("non-string LIKE pattern")
    operand_fn = compile_vector(node.left)
    regex = None if pattern is None else _like_regex(pattern)

    def like_kernel(batch: ColumnarBatch) -> Vec:
        operand = operand_fn(batch)
        if regex is None or _fully_masked(operand):
            return _all_null(batch.length)
        if operand.values.dtype != object:
            # Numeric/bool operands raise "LIKE requires string operands"
            # per non-NULL row — list closure territory.
            raise VectorFallback("LIKE over non-string dtype")
        out = np.zeros(batch.length, dtype=bool)
        fullmatch = regex.fullmatch
        try:
            for i, text in enumerate(operand.values.tolist()):
                if text is None:
                    continue  # masked slot (object vecs keep None inline)
                out[i] = fullmatch(text) is not None
        except TypeError:
            raise VectorFallback("non-string LIKE operand value")
        return Vec(out, operand.mask)

    return like_kernel


def _compile_unary(node: ast.UnaryOp) -> VectorFn:
    operand_fn = compile_vector(node.operand)
    if node.op == "not":

        def not_kernel(batch: ColumnarBatch) -> Vec:
            operand = operand_fn(batch)
            _require_bool(operand)
            return Vec(~operand.values, operand.mask)

        return not_kernel

    def negate_kernel(batch: ColumnarBatch) -> Vec:
        operand = operand_fn(batch)
        if _fully_masked(operand):
            return _all_null(batch.length)
        if operand.values.dtype.kind not in ("i", "f"):
            raise VectorFallback("negating non-numeric dtype")
        if (
            operand.values.dtype.kind == "i"
            and _int_bounds(operand.values) >= _INT_SAFE
        ):
            raise VectorFallback("int64 overflow risk")
        return Vec(-operand.values, operand.mask)

    return negate_kernel


def _compile_between(node: ast.BetweenExpr) -> VectorFn:
    lower_fn = _comparison_kernel(
        compile_vector(node.operand),
        compile_vector(node.low),
        np.greater_equal,
    )
    upper_fn = _comparison_kernel(
        compile_vector(node.operand),
        compile_vector(node.high),
        np.less_equal,
    )
    negated = node.negated

    def between_kernel(batch: ColumnarBatch) -> Vec:
        verdict = _kleene_and(lower_fn(batch), upper_fn(batch))
        if negated:
            return Vec(~verdict.values, verdict.mask)
        return verdict

    return between_kernel


def _compile_in(node: ast.InExpr) -> VectorFn:
    members: List[Any] = []
    saw_null_constant = False
    for item in node.items:
        item_compiled = compile_expr(item)
        if not item_compiled.constant:
            return _static_fallback("non-constant IN list")
        if item_compiled.value is None:
            saw_null_constant = True
        else:
            members.append(item_compiled.value)
    member_types = set(map(type, members))
    if not member_types <= {int, float}:
        return _static_fallback("non-numeric IN list")
    if any(
        isinstance(member, int) and abs(member) > FLOAT_EXACT_INT
        for member in members
    ):
        return _static_fallback("IN member too wide for exact float compare")
    if member_types == {int}:
        member_array = np.asarray(members, dtype=np.int64)
    else:
        member_array = np.asarray(members, dtype=np.float64)
    operand_fn = compile_vector(node.operand)
    negated = node.negated

    def in_kernel(batch: ColumnarBatch) -> Vec:
        operand = operand_fn(batch)
        if _fully_masked(operand):
            return _all_null(batch.length)
        if operand.values.dtype.kind not in ("i", "f"):
            # String/mixed operands compare via _values_equal, which can
            # raise class-mismatch errors row by row: list closure.
            raise VectorFallback("non-numeric IN operand dtype")
        if (
            operand.values.dtype.kind == "i"
            and member_array.dtype.kind == "f"
            and _int_bounds(operand.values) > FLOAT_EXACT_INT
        ):
            raise VectorFallback("int64 column too wide for exact float compare")
        matched = np.isin(operand.values, member_array)
        out = matched != negated
        mask = operand.mask
        if saw_null_constant:
            # Unmatched rows compare against the NULL member → UNKNOWN.
            mask = ~matched if mask is None else (mask | ~matched)
            if not mask.any():
                mask = None
        return Vec(out, mask)

    return in_kernel


def _compile_is_null(node: ast.IsNullExpr) -> VectorFn:
    operand_fn = compile_vector(node.operand)
    negated = node.negated

    def is_null_kernel(batch: ColumnarBatch) -> Vec:
        operand = operand_fn(batch)
        if operand.mask is None:
            verdict = np.zeros(batch.length, dtype=bool)
        else:
            verdict = operand.mask.copy()
        if negated:
            verdict = ~verdict
        return Vec(verdict)

    return is_null_kernel


def _compile_function(node: ast.FunctionCall) -> VectorFn:
    return _static_fallback(f"no vector lowering for {node.name}()")


_DISPATCH: Dict[type, Callable[[Any], VectorFn]] = {
    ast.Literal: _compile_literal,
    ast.RuntimeParameter: _compile_runtime_parameter,
    ast.ColumnRef: _compile_column,
    ast.UnaryOp: _compile_unary,
    ast.BinaryOp: _compile_binary,
    ast.BetweenExpr: _compile_between,
    ast.InExpr: _compile_in,
    ast.IsNullExpr: _compile_is_null,
    ast.FunctionCall: _compile_function,
}

"""Vectorized numpy kernels, and the one kernel-or-closure decision.

:func:`kernel_of` lowers a :class:`~repro.expr.compile.CompiledExpr`
into a kernel ``Callable[[ColumnarBatch], Vec]`` that evaluates the whole
column at once with numpy — comparisons, arithmetic, ``IN`` via
``np.isin``, ``LIKE`` over object arrays, and masked Kleene (3VL)
AND/OR.  The kernel is lowered on first use and kept in the compiled
expression's ``kernel`` slot, so it is shared exactly as widely as the
batch closure beside it (through :mod:`repro.expr.compile`'s cache).
Lowering walks the compiled operands, never the cache.  Two sessions
racing to lower one kernel may both build it; the equivalent results
overwrite each other harmlessly.

Parity contract
---------------

The interpreter in :mod:`repro.expr.eval` remains the semantic oracle.
A kernel **never approximates**: whenever full-width numpy evaluation
cannot reproduce the interpreter bit-for-bit — object-dtype columns,
type-mismatch errors, division by zero, int64 overflow risk, lossy
int64→float64 casts past ``2**53``, non-constant ``IN``/``LIKE``
operands, unknown functions — the kernel raises :class:`VectorFallback`
(on every call when the shape is statically unsupported, on the batch
when the data decides).  :func:`select_rows` and :func:`key_columns` —
the only places that catch it — then re-evaluate the batch through the
batch closures, which raise the error.  Because kernels themselves never
raise ``ExpressionError``, full-width evaluation of ``AND``/``OR``
operands is safe: a side that *could* error on a row the other side's
short-circuit would have skipped always falls back instead, and the
closure's selection-vector evaluation reproduces the skip exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.executor.batch import RowBatch
from repro.executor.vecbatch import FLOAT_EXACT_INT, ColumnarBatch, Vec
from repro.expr.compile import CompiledExpr
from repro.expr.eval import _like_regex
from repro.sql import ast

VectorFn = Callable[[ColumnarBatch], Vec]
Children = Sequence[CompiledExpr]

#: int arithmetic operands are bounded well inside int64 so that +, -,
#: and (pairwise-bounded) * can never wrap; anything bigger falls back.
_INT_SAFE = 2**62


class VectorFallback(Exception):
    """The vector kernel cannot reproduce interpreter semantics for this
    expression/batch; the batch closure must evaluate it instead."""


def kernel_of(compiled: CompiledExpr) -> VectorFn:
    """``compiled``'s kernel, lowered on first use and kept on it."""
    kernel = compiled.kernel
    if kernel is None:
        kernel = compiled.kernel = _lower(compiled)
    return kernel


# ------------------------------------------------------------- entry points


def select_rows(
    predicate: CompiledExpr,
    columnar: ColumnarBatch,
    rows: Callable[[], RowBatch],
) -> RowBatch:
    """The rows of ``columnar`` that ``predicate`` keeps (WHERE semantics:
    only a definite ``True``), materialized late from the kernel's
    surviving positions — or, when the kernel declines, filtered from
    ``rows()`` by the batch closure."""
    (kept,) = _kernel_or_closure(
        (predicate,),
        columnar,
        rows,
        lambda kernel: columnar.to_row_batch(filter_indices(kernel, columnar)),
        RowBatch.filter_true,
    )
    return kept


def key_columns(keys: Sequence[CompiledExpr], batch: RowBatch) -> List[List[Any]]:
    """One value list per join key over ``batch``.

    Plain column references come straight from their closure (the
    batch's own list, zero copy).  A batch with any computed key runs
    every key's kernel; if one declines, every key's closure instead.
    """
    if all(isinstance(key.expression, ast.ColumnRef) for key in keys):
        return [key.batch(batch) for key in keys]
    columnar = ColumnarBatch.from_row_batch(batch)
    return _kernel_or_closure(
        keys,
        columnar,
        lambda: batch,
        lambda kernel: kernel(columnar).to_list(),
        lambda _batch, values: values,
    )


def _kernel_or_closure(
    compiled: Sequence[CompiledExpr],
    columnar: ColumnarBatch,
    rows: Callable[[], RowBatch],
    from_kernel: Callable[[VectorFn], Any],
    from_closure: Callable[[RowBatch, List[Any]], Any],
) -> List[Any]:
    """Every expression through its kernel, or — if any kernel declines
    the batch — every expression through its closure over ``rows()``."""
    try:
        return [from_kernel(kernel_of(expr)) for expr in compiled]
    except VectorFallback:
        batch = rows()
        return [from_closure(batch, expr.batch(batch)) for expr in compiled]


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
    no kernel consumes (the batch closure handles them)."""
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


def _lower(compiled: CompiledExpr) -> VectorFn:
    if compiled.constant:
        value = compiled.value

        def constant_kernel(batch: ColumnarBatch) -> Vec:
            return _broadcast(value, batch.length)

        return constant_kernel
    expression = compiled.expression
    handler = _DISPATCH.get(type(expression))
    if handler is None or compiled.children is None:
        return _static_fallback(
            f"no vector lowering for {type(expression).__name__}"
        )
    return handler(expression, compiled.children)


def _lower_column(node: ast.ColumnRef, _children: Children) -> VectorFn:
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
            # Ambiguous / unknown: the batch closure raises the exact error.
            raise VectorFallback(f"unresolvable column {bare!r}")
        return batch.vec(matches[0])

    return bare_kernel


def _lower_runtime_parameter(
    node: ast.RuntimeParameter, _children: Children
) -> VectorFn:
    def parameter_kernel(batch: ColumnarBatch) -> Vec:
        # Read the live constraint value on every call: plans built on
        # runtime parameters must see value-changing repairs.
        return _broadcast(node.current_value(), batch.length)

    return parameter_kernel


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
                # The batch closure raises "division by zero".
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
        # it to the selection-vector batch closure.
        left = left_fn(batch)
        right = right_fn(batch)
        _require_bool(left)
        _require_bool(right)
        return combine(left, right)

    return kernel


def _lower_binary(node: ast.BinaryOp, children: Children) -> VectorFn:
    op = node.op
    if op == "like":
        return _lower_like(children)
    left_fn, right_fn = kernel_of(children[0]), kernel_of(children[1])
    if op in ("and", "or"):
        return _logical_kernel(op, left_fn, right_fn)
    ufunc = _COMPARISON_UFUNCS.get(op)
    if ufunc is not None:
        return _comparison_kernel(left_fn, right_fn, ufunc)
    return _arithmetic_kernel(op, left_fn, right_fn)


def _lower_like(children: Children) -> VectorFn:
    operand_compiled, pattern_compiled = children
    if not pattern_compiled.constant:
        return _static_fallback("non-constant LIKE pattern")
    pattern = pattern_compiled.value
    if pattern is not None and not isinstance(pattern, str):
        # Every non-NULL operand row raises; the batch closure does that.
        return _static_fallback("non-string LIKE pattern")
    operand_fn = kernel_of(operand_compiled)
    regex = None if pattern is None else _like_regex(pattern)

    def like_kernel(batch: ColumnarBatch) -> Vec:
        operand = operand_fn(batch)
        if regex is None or _fully_masked(operand):
            return _all_null(batch.length)
        if operand.values.dtype != object:
            # Numeric/bool operands raise "LIKE requires string operands"
            # per non-NULL row — batch closure territory.
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


def _lower_unary(node: ast.UnaryOp, children: Children) -> VectorFn:
    operand_fn = kernel_of(children[0])
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


def _lower_between(node: ast.BetweenExpr, children: Children) -> VectorFn:
    operand_fn, low_fn, high_fn = (kernel_of(child) for child in children)
    lower_fn = _comparison_kernel(operand_fn, low_fn, np.greater_equal)
    upper_fn = _comparison_kernel(operand_fn, high_fn, np.less_equal)
    negated = node.negated

    def between_kernel(batch: ColumnarBatch) -> Vec:
        verdict = _kleene_and(lower_fn(batch), upper_fn(batch))
        if negated:
            return Vec(~verdict.values, verdict.mask)
        return verdict

    return between_kernel


def _lower_in(node: ast.InExpr, children: Children) -> VectorFn:
    members: List[Any] = []
    saw_null_constant = False
    for item in children[1:]:
        if not item.constant:
            return _static_fallback("non-constant IN list")
        if item.value is None:
            saw_null_constant = True
        else:
            members.append(item.value)
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
    operand_fn = kernel_of(children[0])
    negated = node.negated

    def in_kernel(batch: ColumnarBatch) -> Vec:
        operand = operand_fn(batch)
        if _fully_masked(operand):
            return _all_null(batch.length)
        if operand.values.dtype.kind not in ("i", "f"):
            # String/mixed operands compare via _values_equal, which can
            # raise class-mismatch errors row by row: batch closure.
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


def _lower_is_null(node: ast.IsNullExpr, children: Children) -> VectorFn:
    operand_fn = kernel_of(children[0])
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


def _lower_function(node: ast.FunctionCall, _children: Children) -> VectorFn:
    return _static_fallback(f"no vector lowering for {node.name}()")


_DISPATCH: Dict[type, Callable[[Any, Children], VectorFn]] = {
    ast.RuntimeParameter: _lower_runtime_parameter,
    ast.ColumnRef: _lower_column,
    ast.UnaryOp: _lower_unary,
    ast.BinaryOp: _lower_binary,
    ast.BetweenExpr: _lower_between,
    ast.InExpr: _lower_in,
    ast.IsNullExpr: _lower_is_null,
    ast.FunctionCall: _lower_function,
}

"""Vectorized kernels: how the production executor evaluates expressions.

:func:`kernel_of` lowers a :class:`~repro.expr.compile.CompiledExpr`
into a kernel ``Callable[[RowBatch], Vec]`` that evaluates the whole
column at once — comparisons, arithmetic, ``abs``, ``IN``, ``LIKE``,
``IS NULL`` and masked Kleene (3VL) AND/OR/NOT.  The kernel is lowered on
first use and kept in the compiled expression's ``kernel`` slot, so it
is shared exactly as widely as the compiled expression (through
:mod:`repro.expr.compile`'s cache).  Lowering walks the compiled
operands, never the cache.  Two sessions racing to lower one kernel may
both build it; the equivalent results overwrite each other harmlessly.

Parity contract
---------------

The interpreter in :mod:`repro.expr.eval` is the semantics, and a kernel
**never approximates**.  int64 and float64 columns run as numpy ufuncs.
Every other batch — strings, bools, dates, mixed ``int``/``float``
columns, ints past int64, int64 arithmetic at risk of overflow, int/float
comparisons past ``2**53`` — runs the interpreter's own operators
element by element after one class check per batch.  A kernel raises
:class:`VectorFallback` (declines) only for a batch in which some row
would raise under :func:`~repro.expr.eval.evaluate` (a class mismatch, a
zero divisor, a non-boolean AND operand) and for a node with no kernel
(a deferred fold error, an aggregate or unknown function).  The class
check is per batch, so a batch mixing classes that happen to pair up
row by row declines too.

:func:`select_rows` and :func:`value_columns` are the only entry points,
and both take the operator's :class:`~repro.executor.batch.RowBatch`
itself: a kernel reads a column through :meth:`RowBatch.vec
<repro.executor.batch.RowBatch.vec>`, the interpreter the same batch's
rows.  A column reference they read directly is no kernel at all: it is the
batch's own column, resolved as the interpreter resolves names.  When a
kernel declines, the entry point evaluates that batch row by row through
:func:`~repro.expr.eval.evaluate` — the one ``except VectorFallback`` —
so an erroring batch raises its first erroring row's error.  Because
kernels never raise ``ExpressionError``, full-width evaluation of
``AND``/``OR`` operands is safe: a side that *could* error on a row the
other side's short-circuit would have skipped declines instead, and the
interpreter reproduces the skip.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Collection, Dict, List, Optional, Sequence, Set, TypeVar
)

import numpy as np

from repro.executor.batch import RowBatch
from repro.executor.vecbatch import FLOAT_EXACT_INT, Vec, promote
from repro.expr.compile import CompiledExpr
from repro.expr.eval import _ARITHMETIC, _COMPARATORS, _like_regex, evaluate
from repro.sql import ast

VectorFn = Callable[[RowBatch], Vec]
Children = Sequence[CompiledExpr]
T = TypeVar("T")

#: int arithmetic operands are bounded well inside int64 so that +, -,
#: and (pairwise-bounded) * can never wrap; anything bigger runs on
#: Python ints.
_INT_SAFE = 2**62

_NONE_TYPE = type(None)
_NUMBERS = frozenset((int, float))


class VectorFallback(Exception):
    """Some row of the batch raises under the interpreter, or the node has
    no kernel: the interpreter must evaluate the batch row by row."""


def kernel_of(compiled: CompiledExpr) -> VectorFn:
    """``compiled``'s kernel, lowered on first use and kept on it."""
    kernel = compiled.kernel
    if kernel is None:
        kernel = compiled.kernel = _lower(compiled)
    return kernel


# ------------------------------------------------------------- entry points


def select_rows(predicate: CompiledExpr, batch: RowBatch) -> RowBatch:
    """The rows of ``batch`` that ``predicate`` keeps (WHERE semantics:
    only a definite ``True``): taken at the kernel's surviving positions,
    or, when the kernel declines, filtered by the interpreter's values."""
    return _kernels_or_interpreter(
        lambda: _take(batch, filter_indices(kernel_of(predicate), batch)),
        (predicate,),
        batch,
        lambda values: batch.filter_true(values[0]),
    )


def value_columns(
    compiled: Sequence[Optional[CompiledExpr]], batch: RowBatch
) -> List[Optional[List[Any]]]:
    """One value list per expression over ``batch`` (None for a None
    entry).  A column reference is the batch's own column (zero copy);
    any other expression runs its kernel.  If a kernel declines, every
    expression runs through the interpreter instead, a row at a time."""
    return _kernels_or_interpreter(
        lambda: _kernel_columns(compiled, batch),
        compiled,
        batch,
        lambda values: values,
    )


def _kernels_or_interpreter(
    run_kernels: Callable[[], T],
    compiled: Sequence[Optional[CompiledExpr]],
    batch: RowBatch,
    finish: Callable[[List[Optional[List[Any]]]], T],
) -> T:
    """``run_kernels()``, or — if a kernel declines the batch — ``finish``
    over the interpreter's values of ``compiled`` over ``batch``."""
    try:
        return run_kernels()
    except VectorFallback:
        return finish(_interpret(compiled, batch))


def _take(batch: RowBatch, indices: Optional[np.ndarray]) -> RowBatch:
    return batch if indices is None else batch.take(indices.tolist())


def _kernel_columns(
    compiled: Sequence[Optional[CompiledExpr]], batch: RowBatch
) -> List[Optional[List[Any]]]:
    out: List[Optional[List[Any]]] = []
    for expr in compiled:
        if expr is None:
            out.append(None)
        elif type(expr.expression) is ast.ColumnRef:
            out.append(batch.column(_resolve(expr.expression, batch.columns)))
        else:
            out.append(kernel_of(expr)(batch).to_list())
    return out


def _interpret(
    compiled: Sequence[Optional[CompiledExpr]], batch: RowBatch
) -> List[Optional[List[Any]]]:
    """Every expression over ``batch`` through the interpreter, each row
    whole before the next, so the first erroring row raises."""
    expressions = [None if expr is None else expr.expression for expr in compiled]
    rows = [
        [None if e is None else evaluate(e, row) for e in expressions]
        for row in batch.to_rows()
    ]
    return [
        None if e is None else [row[i] for row in rows]
        for i, e in enumerate(expressions)
    ]


def filter_indices(kernel: VectorFn, batch: RowBatch) -> Optional[np.ndarray]:
    """Surviving row indices for a predicate kernel, or ``None`` when
    every row passes (so callers can keep the whole batch unsliced).

    Mirrors ``RowBatch.filter_true``: only a definite ``True`` keeps a
    row — NULLs drop, and (like the row pipeline) non-boolean predicate
    values drop silently rather than raising.
    """
    vector = kernel(batch)
    values = vector.values
    if values.dtype == object:
        keep = np.fromiter(
            (value is True for value in values.tolist()), dtype=bool, count=len(values)
        )
    elif values.dtype != np.bool_:
        # Numeric predicate: no value ``is True`` → no survivors.
        return np.empty(0, dtype=np.intp)
    else:
        keep = values if vector.mask is None else values & ~vector.mask
    if keep.all():
        return None
    return np.flatnonzero(keep)


# ----------------------------------------------------------------- helpers


def _resolve(node: ast.ColumnRef, names: Collection[str]) -> str:
    """The batch column ``node`` reads, found as the interpreter finds it
    in a row: qualified, then bare; bare, then the one ``.column``
    suffix.  Declines when none or several match (the interpreter
    raises "unknown" or "ambiguous column")."""
    bare = node.column
    if node.table is not None:
        qualified = f"{node.table}.{bare}"
        if qualified in names:
            return qualified
        if bare in names:
            return bare
        raise VectorFallback(f"unknown column {qualified!r}")
    if bare in names:
        return bare
    suffix = f".{bare}"
    matches = [name for name in names if name.endswith(suffix)]
    if len(matches) != 1:
        raise VectorFallback(f"unresolvable column {bare!r}")
    return matches[0]


def _static_fallback(reason: str) -> VectorFn:
    def kernel(batch: RowBatch) -> Vec:
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
    """A constant as a full-width Vec: int64, float64 or bool when it is
    one, an object array otherwise."""
    if value is None:
        return _all_null(length)
    if isinstance(value, bool):
        return Vec(np.full(length, value, dtype=bool))
    if isinstance(value, int) and abs(value) < 2**63:
        return Vec(np.full(length, value, dtype=np.int64))
    if isinstance(value, float):
        return Vec(np.full(length, value, dtype=np.float64))
    return Vec(np.full(length, value, dtype=object))


def _int_bounds(values: np.ndarray) -> int:
    """max(|v|) of an int64 array as an exact Python int (0 if empty)."""
    if values.size == 0:
        return 0
    return max(abs(int(values.min())), abs(int(values.max())))


def _numeric(left: Vec, right: Vec) -> bool:
    """numpy reproduces the interpreter on these operands: both int64 or
    float64, and, when they mix, every int exact as a double."""
    lk, rk = left.values.dtype.kind, right.values.dtype.kind
    if lk not in ("i", "f") or rk not in ("i", "f"):
        return False
    if lk == rk:
        return True
    ints = left if lk == "i" else right
    return _int_bounds(ints.values) <= FLOAT_EXACT_INT


def _classes(*columns: List[Any]) -> Set[type]:
    """The classes of the non-NULL values in ``columns``."""
    classes: Set[type] = set()
    for column in columns:
        classes.update(map(type, column))
    classes.discard(_NONE_TYPE)
    return classes


def _comparable(classes: Set[type]) -> bool:
    """Every pair of values of these classes passes the interpreter's
    ``_require_comparable``: all numbers, or all one class."""
    return classes <= _NUMBERS or len(classes) <= 1


def _bools(values: List[Optional[bool]]) -> Vec:
    """A list of True/False/None as a boolean Vec."""
    count = len(values)
    mask = np.fromiter((v is None for v in values), dtype=bool, count=count)
    truth = np.fromiter((v is True for v in values), dtype=bool, count=count)
    return Vec(truth, mask if mask.any() else None)


def _truth(vector: Vec) -> Vec:
    """A boolean operand as a boolean Vec; declines when some row is not
    a boolean (the interpreter raises "expected a boolean")."""
    if vector.values.dtype == np.bool_:
        return vector
    if not len(vector) or _fully_masked(vector):
        return _all_null(len(vector))
    if vector.values.dtype == object:
        values = vector.values.tolist()
        if _classes(values) == {bool}:
            return _bools(values)
    raise VectorFallback("non-boolean operand")


def _bool_flags(vector: Vec):
    """(definitely-True, definitely-False) flags of a boolean Vec."""
    if vector.mask is None:
        return vector.values, ~vector.values
    known = ~vector.mask
    return vector.values & known, ~vector.values & known


# ------------------------------------------------------------ node kernels


def _lower(compiled: CompiledExpr) -> VectorFn:
    if compiled.constant:
        value = compiled.value

        def constant_kernel(batch: RowBatch) -> Vec:
            return _broadcast(value, batch.length)

        return constant_kernel
    expression = compiled.expression
    if compiled.children is None:
        return _static_fallback(
            f"no vector lowering for {type(expression).__name__}"
        )
    return _DISPATCH[type(expression)](expression, compiled.children)


def _lower_column(node: ast.ColumnRef, _children: Children) -> VectorFn:
    def column_kernel(batch: RowBatch) -> Vec:
        return batch.vec(_resolve(node, batch.columns))

    return column_kernel


def _lower_runtime_parameter(
    node: ast.RuntimeParameter, _children: Children
) -> VectorFn:
    def parameter_kernel(batch: RowBatch) -> Vec:
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


def _comparison_kernel(left_fn: VectorFn, right_fn: VectorFn, op: str) -> VectorFn:
    ufunc, compare = _COMPARISON_UFUNCS[op], _COMPARATORS[op]

    def kernel(batch: RowBatch) -> Vec:
        left = left_fn(batch)
        right = right_fn(batch)
        if _fully_masked(left) or _fully_masked(right):
            return _all_null(batch.length)
        if _numeric(left, right):
            return Vec(
                ufunc(left.values, right.values),
                _union_mask(left.mask, right.mask),
            )
        lefts, rights = left.to_list(), right.to_list()
        if not _comparable(_classes(lefts, rights)):
            raise VectorFallback("incomparable operand classes")
        return _bools(
            [
                None if lv is None or rv is None else compare(lv, rv)
                for lv, rv in zip(lefts, rights)
            ]
        )

    return kernel


def _arith(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    ints = a.dtype.kind == "i" and b.dtype.kind == "i"
    if op == "/":
        if not ints:
            return np.true_divide(a, b)
        # SQL integer division truncates toward zero; numpy floors.
        quotient = np.floor_divide(a, b)
        remainder = a - quotient * b
        return quotient + ((remainder != 0) & ((a < 0) != (b < 0)))
    if ints:
        return np.mod(a, b)  # matches Python % sign-of-divisor for ints
    # Python's float %: C fmod, then a nonzero remainder takes the
    # divisor's sign and a zero one is a zero of the divisor's sign.
    mod = np.fmod(a, b)
    mod = np.where((mod != 0) & ((mod < 0) != (b < 0)), mod + b, mod)
    return np.where(mod == 0, np.copysign(0.0, b), mod)


def _arithmetic_kernel(op: str, left_fn: VectorFn, right_fn: VectorFn) -> VectorFn:
    guard_zero = op in ("/", "%")

    def kernel(batch: RowBatch) -> Vec:
        left = left_fn(batch)
        right = right_fn(batch)
        if _fully_masked(left) or _fully_masked(right):
            return _all_null(batch.length)
        a, b = left.values, right.values
        both_int = a.dtype.kind == "i" and b.dtype.kind == "i"
        if both_int:
            bound_a, bound_b = _int_bounds(a), _int_bounds(b)
            exact = max(bound_a, bound_b) < _INT_SAFE and (
                op != "*" or bound_a * bound_b < _INT_SAFE
            )
        else:
            exact = _numeric(left, right)
        if not exact:
            return _arithmetic_objects(op, guard_zero, left, right)
        mask = _union_mask(left.mask, right.mask)
        if guard_zero:
            live = (b == 0) if mask is None else ((b == 0) & ~mask)
            if live.any():
                raise VectorFallback("zero divisor")
            if mask is not None:
                # Masked filler zeros would still trip numpy warnings.
                b = np.where(mask, 1, b)
        with np.errstate(all="ignore"):  # inf and NaN, as Python floats give
            return Vec(_arith(op, a, b), mask)

    return kernel


def _arithmetic_objects(op: str, guard_zero: bool, left: Vec, right: Vec) -> Vec:
    """The interpreter's arithmetic, element by element."""
    lefts, rights = left.to_list(), right.to_list()
    if not _classes(lefts, rights) <= _NUMBERS:
        raise VectorFallback("non-numeric operand")
    apply = _ARITHMETIC[op]
    out: List[Any] = []
    for lv, rv in zip(lefts, rights):
        if lv is None or rv is None:
            out.append(None)
        elif guard_zero and rv == 0:
            raise VectorFallback("zero divisor")
        else:
            try:
                out.append(apply(lv, rv))
            except OverflowError:  # an int too large for a float
                raise VectorFallback("overflow")
    return promote(out)


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


def _logical_kernel(op: str, left_fn: VectorFn, right_fn: VectorFn) -> VectorFn:
    combine = _kleene_and if op == "and" else _kleene_or

    def kernel(batch: RowBatch) -> Vec:
        # Both sides full-width: legal because kernels never raise the
        # per-row errors short-circuiting would have skipped — a side
        # that could raise declines, taking the whole expression with
        # it to the interpreter.
        return combine(_truth(left_fn(batch)), _truth(right_fn(batch)))

    return kernel


def _lower_binary(node: ast.BinaryOp, children: Children) -> VectorFn:
    op = node.op
    if op == "like":
        return _lower_like(children)
    left_fn, right_fn = kernel_of(children[0]), kernel_of(children[1])
    if op in ("and", "or"):
        return _logical_kernel(op, left_fn, right_fn)
    if op in _COMPARISON_UFUNCS:
        return _comparison_kernel(left_fn, right_fn, op)
    return _arithmetic_kernel(op, left_fn, right_fn)


def _lower_like(children: Children) -> VectorFn:
    operand_fn, pattern_fn = kernel_of(children[0]), kernel_of(children[1])
    pattern = children[1]
    fixed = (
        _like_regex(pattern.value)
        if pattern.constant and isinstance(pattern.value, str)
        else None
    )

    def like_kernel(batch: RowBatch) -> Vec:
        operand = operand_fn(batch)
        patterns = None if fixed is not None else pattern_fn(batch)
        if _fully_masked(operand) or (patterns is not None and _fully_masked(patterns)):
            return _all_null(batch.length)
        texts = operand.to_list()
        if fixed is not None:
            if not _classes(texts) <= {str}:
                raise VectorFallback("LIKE over a non-string operand")
            match = fixed.fullmatch
            return _bools([None if v is None else match(v) is not None for v in texts])
        regexes = patterns.to_list()
        if not _classes(texts, regexes) <= {str}:
            raise VectorFallback("LIKE over a non-string operand")
        return _bools(
            [
                None
                if v is None or p is None
                else _like_regex(p).fullmatch(v) is not None
                for v, p in zip(texts, regexes)
            ]
        )

    return like_kernel


def _lower_unary(node: ast.UnaryOp, children: Children) -> VectorFn:
    operand_fn = kernel_of(children[0])
    if node.op == "not":

        def not_kernel(batch: RowBatch) -> Vec:
            operand = _truth(operand_fn(batch))
            return Vec(~operand.values, operand.mask)

        return not_kernel

    def negate_kernel(batch: RowBatch) -> Vec:
        operand = operand_fn(batch)
        if _fully_masked(operand):
            return _all_null(batch.length)
        kind = operand.values.dtype.kind
        if kind == "f" or (kind == "i" and _int_bounds(operand.values) < _INT_SAFE):
            return Vec(-operand.values, operand.mask)
        values = operand.to_list()
        if not _classes(values) <= _NUMBERS:
            raise VectorFallback("negating a non-number")
        return promote([None if v is None else -v for v in values])

    return negate_kernel


def _lower_between(node: ast.BetweenExpr, children: Children) -> VectorFn:
    operand_fn, low_fn, high_fn = (kernel_of(child) for child in children)
    lower_fn = _comparison_kernel(operand_fn, low_fn, ">=")
    upper_fn = _comparison_kernel(operand_fn, high_fn, "<=")
    negated = node.negated

    def between_kernel(batch: RowBatch) -> Vec:
        verdict = _kleene_and(lower_fn(batch), upper_fn(batch))
        if negated:
            return Vec(~verdict.values, verdict.mask)
        return verdict

    return between_kernel


def _lower_in(node: ast.InExpr, children: Children) -> VectorFn:
    operand_fn = kernel_of(children[0])
    items = children[1:]
    negated = node.negated
    if not all(item.constant for item in items):
        return _in_columns(operand_fn, [kernel_of(item) for item in items], negated)
    members = [item.value for item in items if item.value is not None]
    saw_null = len(members) < len(items)
    member_classes = _classes(members)
    member_set = frozenset(members)
    member_vec = promote(members)

    def in_kernel(batch: RowBatch) -> Vec:
        operand = operand_fn(batch)
        if _fully_masked(operand):
            return _all_null(batch.length)
        if _numeric(operand, member_vec):
            matched = np.isin(operand.values, member_vec.values)
            mask = operand.mask
            if saw_null:
                # Unmatched rows compare against the NULL member → UNKNOWN.
                mask = ~matched if mask is None else (mask | ~matched)
                if not mask.any():
                    mask = None
            return Vec(matched != negated, mask)
        values = operand.to_list()
        if members and not _comparable(_classes(values) | member_classes):
            raise VectorFallback("IN operand and members differ in class")
        missing = None if saw_null else negated
        return _bools(
            [
                None
                if v is None
                # ``v == v`` keeps a NaN from matching itself by identity.
                else (not negated) if v == v and v in member_set
                else missing
                for v in values
            ]
        )

    return in_kernel


def _in_columns(
    operand_fn: VectorFn, item_fns: List[VectorFn], negated: bool
) -> VectorFn:
    """``IN`` over computed items: the interpreter's loop, row by row."""

    def in_kernel(batch: RowBatch) -> Vec:
        values = operand_fn(batch).to_list()
        columns = [item_fn(batch).to_list() for item_fn in item_fns]
        if not _comparable(_classes(values, *columns)):
            raise VectorFallback("IN operand and items differ in class")
        out: List[Optional[bool]] = []
        for i, value in enumerate(values):
            verdict: Optional[bool] = None
            if value is not None:
                verdict = negated
                for column in columns:
                    candidate = column[i]
                    if candidate is None:
                        verdict = None
                    elif value == candidate:
                        verdict = not negated
                        break
            out.append(verdict)
        return _bools(out)

    return in_kernel


def _lower_is_null(node: ast.IsNullExpr, children: Children) -> VectorFn:
    operand_fn = kernel_of(children[0])
    negated = node.negated

    def is_null_kernel(batch: RowBatch) -> Vec:
        operand = operand_fn(batch)
        if operand.mask is None:
            verdict = np.zeros(batch.length, dtype=bool)
        else:
            verdict = operand.mask.copy()
        if negated:
            verdict = ~verdict
        return Vec(verdict)

    return is_null_kernel


def _lower_function(node: ast.FunctionCall, children: Children) -> VectorFn:
    if node.name != "abs" or len(children) != 1:
        return _static_fallback(f"no vector lowering for {node.name}()")
    operand_fn = kernel_of(children[0])

    def abs_kernel(batch: RowBatch) -> Vec:
        operand = operand_fn(batch)
        kind = operand.values.dtype.kind
        if kind == "f" or (kind == "i" and _int_bounds(operand.values) < _INT_SAFE):
            return Vec(np.abs(operand.values), operand.mask)
        values = operand.to_list()
        if not _classes(values) <= {int, float, bool}:
            raise VectorFallback("abs() of a non-number")
        return promote([None if v is None else abs(v) for v in values])

    return abs_kernel


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

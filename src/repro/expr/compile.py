"""Plan-time expression compilation: one lowered form per expression.

:func:`compile_expr` lowers an :class:`~repro.sql.ast.Expression` *once*
into a :class:`CompiledExpr` whose ``batch`` closure maps a
:class:`~repro.executor.batch.RowBatch` to the list of per-row values,
so repeated executions of a cached plan pay no per-evaluation AST
dispatch.  Work that the interpreter in :mod:`repro.expr.eval` redoes on
every row is hoisted to compile time:

* operator callables, column key strings and LIKE regexes are resolved
  and bound as closure locals;
* ``IN`` lists of same-class constants become frozen membership sets;
* comparisons/arithmetic against a constant bind it as a closure local
  instead of materializing a literal column per batch;
* constant subexpressions are folded (with SQL three-valued logic: the
  fold *evaluates* the subtree, so short-circuit AND/OR semantics and
  Kleene NULL propagation are preserved exactly), and a constant
  subtree that would raise at evaluation time compiles to a closure
  raising the identical :class:`~repro.errors.ExpressionError` at call
  time — never at plan time.

The same object also carries the expression's numpy kernel, lowered by
:mod:`repro.expr.vector` on first use and kept in its ``kernel`` slot.

Semantics are pinned to the interpreter: the batch closure returns what
:func:`~repro.expr.eval.evaluate` returns applied to each row of the
batch.  A batch in which some row errors makes the closure raise an
error one of its rows raises under ``evaluate`` — it works a column at
a time, so not necessarily the first such row's.  The differential
suites in ``tests/executor/test_batched_differential.py`` and the unit
oracle in ``tests/expr/test_compile.py`` hold the paths together.

Compiled expressions are shared through one bounded module-level
:class:`~repro.expr.cache.LoweringCache` keyed by the expression node
itself (expression dataclasses hash structurally;
:class:`~repro.sql.ast.RuntimeParameter` compares by identity, so plans
parameterized on different soft constraints never alias).  Identical
predicates across plans — the common case under
:class:`~repro.optimizer.planner.PlanCache` recompiles — therefore reuse
one closure and one kernel; :func:`cache_stats` exposes the hit/miss
counters EXPLAIN reports.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExpressionError
from repro.expr.cache import LoweringCache
from repro.expr.eval import (  # noqa: F401 - shared semantics helpers
    _ARITHMETIC,
    _COMPARATORS,
    _SCALAR_FUNCTIONS,
    _compare_ge,
    _compare_le,
    _like,
    _like_regex,
    _require_comparable,
    _require_number,
    _values_equal,
    evaluate,
)
from repro.sql import ast

BatchFn = Callable[[Any], List[Any]]


class CompiledExpr:
    """A lowered expression: one batch closure and, once lowered, one kernel.

    ``constant`` marks closures produced by constant folding; ``value``
    is only meaningful when ``constant`` is true.  ``children`` are the
    operands' compiled forms, which kernel lowering walks instead of
    looking them up again; None marks a node that only ever runs through
    its closure (a deferred error, an unknown node type).  ``kernel`` is
    None until :func:`repro.expr.vector.kernel_of` lowers it.
    """

    __slots__ = ("expression", "batch", "children", "constant", "value", "kernel")

    def __init__(
        self,
        expression: ast.Expression,
        batch: BatchFn,
        children: Optional[Sequence["CompiledExpr"]] = (),
        constant: bool = False,
        value: Any = None,
    ) -> None:
        self.expression = expression
        self.batch = batch
        self.children = children
        self.constant = constant
        self.value = value
        self.kernel: Any = None

    def __repr__(self) -> str:
        kind = f"const {self.value!r}" if self.constant else "closure"
        return f"CompiledExpr({type(self.expression).__name__}, {kind})"


# ------------------------------------------------------------ compile cache

_CACHE = LoweringCache()


def compile_expr(expression: ast.Expression) -> CompiledExpr:
    """Compile through the shared cache (structural expression keying)."""
    return _CACHE.get_or_build(expression, _compile)


def cache_stats() -> Tuple[int, int]:
    """``(hits, misses)`` of the process-wide compile cache."""
    return _CACHE.stats()


def clear_cache() -> None:
    """Drop every cached expression and reset the counters (tests/benchmarks)."""
    _CACHE.clear()


# --------------------------------------------------------- constant folding


def _is_constant(expression: ast.Expression) -> bool:
    """True when the subtree evaluates row-independently and repeatably.

    ``ColumnRef`` and ``RuntimeParameter`` (whose value tracks the live
    soft constraint) are never constant; neither are aggregate or unknown
    function calls, whose interpreter behaviour is an eval-time raise.
    """
    t = type(expression)
    if t is ast.Literal:
        return True
    if t is ast.UnaryOp:
        return _is_constant(expression.operand)
    if t is ast.BinaryOp:
        return _is_constant(expression.left) and _is_constant(expression.right)
    if t is ast.BetweenExpr:
        return (
            _is_constant(expression.operand)
            and _is_constant(expression.low)
            and _is_constant(expression.high)
        )
    if t is ast.InExpr:
        return _is_constant(expression.operand) and all(
            _is_constant(item) for item in expression.items
        )
    if t is ast.IsNullExpr:
        return _is_constant(expression.operand)
    if t is ast.FunctionCall:
        return (
            not expression.is_aggregate
            and expression.name in _SCALAR_FUNCTIONS
            and all(_is_constant(arg) for arg in expression.args)
        )
    return False


def _constant(expression: ast.Expression, value: Any) -> CompiledExpr:
    def batch_fn(batch: Any, _v: Any = value) -> List[Any]:
        return [_v] * len(batch)

    return CompiledExpr(expression, batch_fn, constant=True, value=value)


def _raising(expression: ast.Expression, message: str) -> CompiledExpr:
    """A subtree whose evaluation raises whatever the row holds: applied
    per row, so it never reaches the raise over an empty batch."""

    def batch_fn(batch: Any, _m: str = message) -> List[Any]:
        if len(batch) == 0:
            return []
        raise ExpressionError(_m)

    return CompiledExpr(expression, batch_fn, children=None)


def _try_fold(expression: ast.Expression) -> Optional[CompiledExpr]:
    try:
        value = evaluate(expression, {})
    except ExpressionError as error:
        return _raising(expression, str(error))
    except Exception:  # noqa: BLE001 - e.g. arity TypeError: keep eval-time
        return None
    return _constant(expression, value)


# ------------------------------------------------------------- node lowering


def _compile(expression: ast.Expression) -> CompiledExpr:
    if _is_constant(expression):
        folded = _try_fold(expression)
        if folded is not None:
            return folded
    compiler = _COMPILERS.get(type(expression))
    if compiler is None:
        # Unknown node type: defer to the interpreter so semantics (the
        # "cannot evaluate" eval-time raise included) stay identical.
        return CompiledExpr(
            expression,
            lambda batch, _e=expression: [
                evaluate(_e, row) for row in batch.to_rows()
            ],
            children=None,
        )
    return compiler(expression)


def _compile_literal(node: ast.Literal) -> CompiledExpr:
    return _constant(node, node.value)


def _compile_runtime_parameter(node: ast.RuntimeParameter) -> CompiledExpr:
    current = node.current_value

    def batch_fn(batch: Any) -> List[Any]:
        # One read per batch: the value cannot change mid-statement.
        return [current()] * len(batch)

    return CompiledExpr(node, batch_fn)


def _compile_column(node: ast.ColumnRef) -> CompiledExpr:
    bare = node.column
    if node.table is not None:
        key = f"{node.table}.{bare}"

        def batch_fn(batch: Any) -> List[Any]:
            data = batch.data
            column = data.get(key)
            if column is not None:
                return column
            column = data.get(bare)
            if column is not None:
                return column
            raise ExpressionError(f"unknown column {key!r}")

        return CompiledExpr(node, batch_fn)

    suffix = f".{bare}"

    def batch_fn(batch: Any) -> List[Any]:
        column = batch.data.get(bare)
        if column is not None:
            return column
        matches = [k for k in batch.columns if k.endswith(suffix)]
        if len(matches) == 1:
            return batch.data[matches[0]]
        if len(matches) > 1:
            raise ExpressionError(f"ambiguous column {bare!r}")
        raise ExpressionError(f"unknown column {bare!r}")

    return CompiledExpr(node, batch_fn)


def _bool_error(value: Any) -> ExpressionError:
    return ExpressionError(f"expected a boolean, got {value!r}")


def _compile_unary(node: ast.UnaryOp) -> CompiledExpr:
    child = compile_expr(node.operand)
    child_batch = child.batch
    if node.op == "not":

        def batch_fn(batch: Any) -> List[Any]:
            out: List[Any] = []
            append = out.append
            for value in child_batch(batch):
                if value is True:
                    append(False)
                elif value is False:
                    append(True)
                elif value is None:
                    append(None)
                else:
                    raise _bool_error(value)
            return out

        return CompiledExpr(node, batch_fn, (child,))

    def batch_fn(batch: Any) -> List[Any]:
        out: List[Any] = []
        append = out.append
        for value in child_batch(batch):
            if value is None:
                append(None)
            elif type(value) is int or type(value) is float:
                append(-value)
            elif not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ExpressionError(f"cannot negate {value!r}")
            else:
                append(-value)
        return out

    return CompiledExpr(node, batch_fn, (child,))


def _compile_logical(node: ast.BinaryOp) -> CompiledExpr:
    """AND/OR with short-circuit: the right side runs only on the rows
    whose left value does not already decide the row (a definite False
    for AND, a definite True for OR) — a selection vector."""
    left = compile_expr(node.left)
    right = compile_expr(node.right)
    left_batch, right_batch = left.batch, right.batch
    decided = node.op == "or"

    def batch_fn(batch: Any) -> List[Any]:
        lefts: List[Any] = []
        append_left = lefts.append
        for value in left_batch(batch):
            if value is True or value is False or value is None:
                append_left(value)
            else:
                raise _bool_error(value)
        out: List[Any] = [decided] * len(lefts)
        need = [i for i, value in enumerate(lefts) if value is not decided]
        if not need:
            return out
        sub = batch if len(need) == len(lefts) else batch.take(need)
        rights = right_batch(sub)
        for position, i in enumerate(need):
            rv = rights[position]
            if rv is decided:
                continue
            if rv is not True and rv is not False and rv is not None:
                raise _bool_error(rv)
            out[i] = None if (lefts[i] is None or rv is None) else not decided
        return out

    return CompiledExpr(node, batch_fn, (left, right))


def _class_check(constant: Any) -> Optional[Callable[[Any], bool]]:
    """A fast exact-class test for values comparable with ``constant``.

    Values failing the test are routed through
    :func:`~repro.expr.eval._require_comparable`, which raises exactly
    where the interpreter would (and passes for exotic-but-comparable
    values like int subclasses, which then take the slow path).
    """
    if isinstance(constant, bool):
        return lambda v: type(v) is bool
    if isinstance(constant, (int, float)):
        return lambda v: type(v) is int or type(v) is float
    cls = type(constant)
    return lambda v: type(v) is cls


def _compile_comparison(node: ast.BinaryOp) -> CompiledExpr:
    op = _COMPARATORS[node.op]
    left = compile_expr(node.left)
    right = compile_expr(node.right)
    left_batch, right_batch = left.batch, right.batch
    children = (left, right)

    if right.constant and not left.constant:
        constant = right.value
        if constant is None:
            # NULL comparand: the left side is still evaluated (it may
            # raise), then the comparison is UNKNOWN.
            def batch_fn(batch: Any) -> List[Any]:
                return [None] * len(left_batch(batch))

            return CompiledExpr(node, batch_fn, children)

        check = _class_check(constant)
        if isinstance(constant, (int, float)) and not isinstance(
            constant, bool
        ):
            # The hot numeric case, inlined as a comprehension.
            def batch_fn(batch: Any) -> List[Any]:
                return [
                    None
                    if v is None
                    else op(v, constant)
                    if type(v) is int or type(v) is float
                    else _compare_slow(v, constant, op)
                    for v in left_batch(batch)
                ]

        else:

            def batch_fn(batch: Any) -> List[Any]:
                return [
                    None
                    if v is None
                    else op(v, constant)
                    if check(v)
                    else _compare_slow(v, constant, op)
                    for v in left_batch(batch)
                ]

        return CompiledExpr(node, batch_fn, children)

    def batch_fn(batch: Any) -> List[Any]:
        lefts = left_batch(batch)
        rights = right_batch(batch)
        out: List[Any] = []
        append = out.append
        for lv, rv in zip(lefts, rights):
            if lv is None or rv is None:
                append(None)
            elif type(lv) is type(rv):
                append(op(lv, rv))
            else:
                append(_compare_slow(lv, rv, op))
        return out

    return CompiledExpr(node, batch_fn, children)


def _compare_slow(left: Any, right: Any, op: Callable[[Any, Any], Any]) -> Any:
    _require_comparable(left, right)
    return op(left, right)


def _compile_arithmetic(node: ast.BinaryOp) -> CompiledExpr:
    op = _ARITHMETIC[node.op]
    guard_zero = node.op in ("/", "%")
    left = compile_expr(node.left)
    right = compile_expr(node.right)
    left_batch, right_batch = left.batch, right.batch
    children = (left, right)

    if (
        right.constant
        and not left.constant
        and isinstance(right.value, (int, float))
        and not isinstance(right.value, bool)
        and not (guard_zero and right.value == 0)
    ):
        constant = right.value

        def batch_fn(batch: Any) -> List[Any]:
            return [
                None
                if v is None
                else op(v, constant)
                if type(v) is int or type(v) is float
                else _arith_slow(v, constant, op)
                for v in left_batch(batch)
            ]

        return CompiledExpr(node, batch_fn, children)

    def batch_fn(batch: Any) -> List[Any]:
        lefts = left_batch(batch)
        rights = right_batch(batch)
        out: List[Any] = []
        append = out.append
        for lv, rv in zip(lefts, rights):
            if lv is None or rv is None:
                append(None)
                continue
            if not (
                (type(lv) is int or type(lv) is float)
                and (type(rv) is int or type(rv) is float)
            ):
                _require_number(lv)
                _require_number(rv)
            if guard_zero and rv == 0:
                raise ExpressionError("division by zero")
            append(op(lv, rv))
        return out

    return CompiledExpr(node, batch_fn, children)


def _arith_slow(left: Any, right: Any, op: Callable[[Any, Any], Any]) -> Any:
    _require_number(left)
    return op(left, right)


def _compile_like(node: ast.BinaryOp) -> CompiledExpr:
    left = compile_expr(node.left)
    right = compile_expr(node.right)
    left_batch, right_batch = left.batch, right.batch
    children = (left, right)

    if right.constant and not left.constant:
        pattern = right.value
        if pattern is None:

            def batch_fn(batch: Any) -> List[Any]:
                return [None] * len(left_batch(batch))

            return CompiledExpr(node, batch_fn, children)
        if not isinstance(pattern, str):

            def batch_fn(batch: Any) -> List[Any]:
                out: List[Any] = []
                append = out.append
                for value in left_batch(batch):
                    if value is None:
                        append(None)
                    else:
                        raise ExpressionError("LIKE requires string operands")
                return out

            return CompiledExpr(node, batch_fn, children)

        fullmatch = _like_regex(pattern).fullmatch

        def batch_fn(batch: Any) -> List[Any]:
            return [
                None
                if v is None
                else (fullmatch(v) is not None)
                if type(v) is str
                else _like(v, pattern)
                for v in left_batch(batch)
            ]

        return CompiledExpr(node, batch_fn, children)

    def batch_fn(batch: Any) -> List[Any]:
        lefts = left_batch(batch)
        rights = right_batch(batch)
        return [
            None if lv is None or rv is None else _like(lv, rv)
            for lv, rv in zip(lefts, rights)
        ]

    return CompiledExpr(node, batch_fn, children)


def _compile_binary(node: ast.BinaryOp) -> CompiledExpr:
    op = node.op
    if op in ("and", "or"):
        return _compile_logical(node)
    if op == "like":
        return _compile_like(node)
    if op in _COMPARATORS:
        return _compile_comparison(node)
    if op in _ARITHMETIC:
        return _compile_arithmetic(node)
    return _raising(node, f"unknown operator {op!r}")


def _compile_between(node: ast.BetweenExpr) -> CompiledExpr:
    operand = compile_expr(node.operand)
    low = compile_expr(node.low)
    high = compile_expr(node.high)
    operand_batch, low_batch, high_batch = operand.batch, low.batch, high.batch
    children = (operand, low, high)
    negated = node.negated

    if (
        low.constant
        and high.constant
        and low.value is not None
        and high.value is not None
        and _class_of(low.value) is not None
        and _class_of(low.value) == _class_of(high.value)
    ):
        lo, hi = low.value, high.value
        check = _class_check(lo)

        def batch_fn(batch: Any) -> List[Any]:
            out: List[Any] = []
            append = out.append
            for v in operand_batch(batch):
                if v is None:
                    append(None)
                elif check(v):
                    verdict = lo <= v <= hi
                    append((not verdict) if negated else verdict)
                else:
                    verdict = _compare_ge(v, lo) and _compare_le(v, hi)
                    append((not verdict) if negated else verdict)
            return out

        return CompiledExpr(node, batch_fn, children)

    def batch_fn(batch: Any) -> List[Any]:
        values = operand_batch(batch)
        lows = low_batch(batch)
        highs = high_batch(batch)
        out: List[Any] = []
        append = out.append
        for value, lo, hi in zip(values, lows, highs):
            if value is None:
                append(None)
                continue
            lower_ok = None if lo is None else _compare_ge(value, lo)
            upper_ok = None if hi is None else _compare_le(value, hi)
            if lower_ok is False or upper_ok is False:
                verdict: Optional[bool] = False
            elif lower_ok is None or upper_ok is None:
                verdict = None
            else:
                verdict = True
            if negated and verdict is not None:
                verdict = not verdict
            append(verdict)
        return out

    return CompiledExpr(node, batch_fn, children)


def _class_of(value: Any) -> Optional[str]:
    """Comparability class of a constant: all members mutually comparable."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "numeric"
    if isinstance(value, str):
        return "str"
    return None


def _compile_in(node: ast.InExpr) -> CompiledExpr:
    operand = compile_expr(node.operand)
    items = [compile_expr(item) for item in node.items]
    operand_batch = operand.batch
    children = (operand, *items)
    negated = node.negated

    if all(item.constant for item in items):
        values = [item.value for item in items]
        non_null = [v for v in values if v is not None]
        saw_null = len(non_null) < len(values)
        classes = {_class_of(v) for v in non_null}
        if not non_null:
            # Every item is NULL: any non-NULL operand compares UNKNOWN.
            def batch_fn(batch: Any) -> List[Any]:
                return [None] * len(operand_batch(batch))

            return CompiledExpr(node, batch_fn, children)
        if len(classes) == 1 and None not in classes:
            members = frozenset(non_null)
            representative = non_null[0]
            check = _class_check(representative)
            hit = not negated

            def batch_fn(batch: Any) -> List[Any]:
                out: List[Any] = []
                append = out.append
                for v in operand_batch(batch):
                    if v is None:
                        append(None)
                        continue
                    if not check(v):
                        # Raises for incomparable operands exactly where
                        # the interpreter's first candidate comparison
                        # would; passes for comparable oddballs.
                        _require_comparable(v, representative)
                    if v in members:
                        append(hit)
                    elif saw_null:
                        append(None)
                    else:
                        append(negated)
                return out

            return CompiledExpr(node, batch_fn, children)

    item_batches = [item.batch for item in items]

    def batch_fn(batch: Any) -> List[Any]:
        values = operand_batch(batch)
        item_columns = [item_batch(batch) for item_batch in item_batches]
        out: List[Any] = []
        append = out.append
        for i, value in enumerate(values):
            if value is None:
                append(None)
                continue
            saw_null = False
            verdict: Optional[bool] = negated
            for column in item_columns:
                candidate = column[i]
                if candidate is None:
                    saw_null = True
                elif _values_equal(value, candidate):
                    verdict = not negated
                    break
            else:
                if saw_null:
                    verdict = None
            append(verdict)
        return out

    return CompiledExpr(node, batch_fn, children)


def _compile_is_null(node: ast.IsNullExpr) -> CompiledExpr:
    child = compile_expr(node.operand)
    child_batch = child.batch
    if node.negated:
        return CompiledExpr(
            node,
            lambda batch: [v is not None for v in child_batch(batch)],
            (child,),
        )
    return CompiledExpr(
        node, lambda batch: [v is None for v in child_batch(batch)], (child,)
    )


def _compile_function(node: ast.FunctionCall) -> CompiledExpr:
    if node.is_aggregate:
        return _raising(
            node, f"aggregate {node.name.upper()} outside GROUP BY context"
        )
    function = _SCALAR_FUNCTIONS.get(node.name)
    if function is None:
        return _raising(node, f"unknown function {node.name!r}")

    args = [compile_expr(arg) for arg in node.args]
    arg_batches = [arg.batch for arg in args]

    if len(args) == 1:
        only_batch = arg_batches[0]

        def batch_fn(batch: Any) -> List[Any]:
            return [
                None if v is None else function(v) for v in only_batch(batch)
            ]

        return CompiledExpr(node, batch_fn, args)

    def batch_fn(batch: Any) -> List[Any]:
        arg_columns = [arg_batch(batch) for arg_batch in arg_batches]
        out: List[Any] = []
        append = out.append
        rows = zip(*arg_columns) if arg_columns else ((),) * len(batch)
        for values in rows:
            if any(value is None for value in values):
                append(None)
            else:
                append(function(*values))
        return out

    return CompiledExpr(node, batch_fn, args)


_COMPILERS: Dict[type, Callable[[Any], CompiledExpr]] = {
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

"""Expression evaluation with SQL three-valued logic.

:func:`evaluate` computes the value of a scalar or boolean expression over a
row presented as a ``{name: value}`` dict.  Column references resolve as
follows: a qualified reference ``t.a`` looks up the key ``"t.a"``; a bare
reference ``a`` looks up ``"a"``.  The executor materializes rows with both
forms of key (bare names only where unambiguous), so expressions written
either way evaluate correctly.

Boolean results use Kleene logic: ``None`` means SQL UNKNOWN.  Aggregate
function calls cannot be evaluated here (they are handled by the group-by
operator) and raise :class:`~repro.errors.ExpressionError`.

This interpreter is the semantics: the kernels of
:mod:`repro.expr.vector` are held to it row by row, reuse its operators
on every column numpy cannot hold, and hand it any batch in which some
row raises.
"""

from __future__ import annotations

import operator as _operator
import re
from typing import Any, Callable, Dict, Optional

from repro.errors import ExpressionError
from repro.sql import ast

RowDict = Dict[str, Any]


def evaluate(expression: ast.Expression, row: RowDict) -> Any:
    """Evaluate ``expression`` against ``row``; None encodes SQL NULL."""
    handler = _DISPATCH.get(type(expression))
    if handler is None:
        raise ExpressionError(
            f"cannot evaluate {type(expression).__name__}"
        )
    return handler(expression, row)


def compile_predicate(
    expression: ast.Expression,
) -> Callable[[RowDict], Optional[bool]]:
    """Wrap an expression as a reusable row predicate.

    The result returns ``True`` / ``False`` / ``None`` (UNKNOWN).  Used to
    compile CHECK constraints and soft-constraint statements.
    """

    def predicate(row: RowDict) -> Optional[bool]:
        return _as_bool(evaluate(expression, row))

    return predicate


def _as_bool(value: Any) -> Optional[bool]:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    raise ExpressionError(f"expected a boolean, got {value!r}")


# ----------------------------------------------------------- node handlers


def _eval_literal(node: ast.Literal, row: RowDict) -> Any:
    return node.value


def _eval_column(node: ast.ColumnRef, row: RowDict) -> Any:
    if node.table is not None:
        key = f"{node.table}.{node.column}"
        if key in row:
            return row[key]
        if node.column in row:
            return row[node.column]
        raise ExpressionError(f"unknown column {key!r}")
    if node.column in row:
        return row[node.column]
    # Fall back: a unique qualified match.
    suffix = f".{node.column}"
    matches = [key for key in row if key.endswith(suffix)]
    if len(matches) == 1:
        return row[matches[0]]
    if len(matches) > 1:
        raise ExpressionError(f"ambiguous column {node.column!r}")
    raise ExpressionError(f"unknown column {node.column!r}")


def _eval_unary(node: ast.UnaryOp, row: RowDict) -> Any:
    value = evaluate(node.operand, row)
    if node.op == "not":
        truth = _as_bool(value)
        return None if truth is None else not truth
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ExpressionError(f"cannot negate {value!r}")
    return -value


def _eval_binary(node: ast.BinaryOp, row: RowDict) -> Any:
    op = node.op
    if op == "and":
        left = _as_bool(evaluate(node.left, row))
        if left is False:
            return False
        right = _as_bool(evaluate(node.right, row))
        if right is False:
            return False
        if left is None or right is None:
            return None
        return True
    if op == "or":
        left = _as_bool(evaluate(node.left, row))
        if left is True:
            return True
        right = _as_bool(evaluate(node.right, row))
        if right is True:
            return True
        if left is None or right is None:
            return None
        return False

    left = evaluate(node.left, row)
    right = evaluate(node.right, row)
    if left is None or right is None:
        return None
    if op == "like":
        return _like(left, right)
    if op in _COMPARATORS:
        _require_comparable(left, right)
        return _COMPARATORS[op](left, right)
    if op in _ARITHMETIC:
        _require_number(left)
        _require_number(right)
        if op in ("/", "%") and right == 0:
            raise ExpressionError("division by zero")
        result = _ARITHMETIC[op](left, right)
        return result
    raise ExpressionError(f"unknown operator {op!r}")


def _eval_between(node: ast.BetweenExpr, row: RowDict) -> Optional[bool]:
    value = evaluate(node.operand, row)
    low = evaluate(node.low, row)
    high = evaluate(node.high, row)
    if value is None:
        return None
    lower_ok = None if low is None else _compare_ge(value, low)
    upper_ok = None if high is None else _compare_le(value, high)
    # Kleene AND of the two bound checks.
    if lower_ok is False or upper_ok is False:
        verdict: Optional[bool] = False
    elif lower_ok is None or upper_ok is None:
        verdict = None
    else:
        verdict = True
    if node.negated and verdict is not None:
        return not verdict
    return verdict


def _eval_in(node: ast.InExpr, row: RowDict) -> Optional[bool]:
    value = evaluate(node.operand, row)
    if value is None:
        return None
    saw_null = False
    for item in node.items:
        candidate = evaluate(item, row)
        if candidate is None:
            saw_null = True
        elif _values_equal(value, candidate):
            return not node.negated
    if saw_null:
        return None
    return node.negated


def _eval_is_null(node: ast.IsNullExpr, row: RowDict) -> bool:
    value = evaluate(node.operand, row)
    is_null = value is None
    return not is_null if node.negated else is_null


_SCALAR_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "abs": abs,
}


def _eval_function(node: ast.FunctionCall, row: RowDict) -> Any:
    if node.is_aggregate:
        raise ExpressionError(
            f"aggregate {node.name.upper()} outside GROUP BY context"
        )
    function = _SCALAR_FUNCTIONS.get(node.name)
    if function is None:
        raise ExpressionError(f"unknown function {node.name!r}")
    args = [evaluate(arg, row) for arg in node.args]
    if any(arg is None for arg in args):
        return None
    return function(*args)


# ------------------------------------------------------------------ helpers


def _values_equal(left: Any, right: Any) -> bool:
    _require_comparable(left, right)
    return left == right


def _require_number(value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExpressionError(f"expected a number, got {value!r}")


def _require_comparable(left: Any, right: Any) -> None:
    numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if numeric(left) and numeric(right):
        return
    if type(left) is type(right):
        return
    raise ExpressionError(
        f"cannot compare {left!r} ({type(left).__name__}) with "
        f"{right!r} ({type(right).__name__})"
    )


def _compare_ge(left: Any, right: Any) -> bool:
    _require_comparable(left, right)
    return left >= right


def _compare_le(left: Any, right: Any) -> bool:
    _require_comparable(left, right)
    return left <= right


def _like(value: Any, pattern: Any) -> bool:
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise ExpressionError("LIKE requires string operands")
    regex = _like_regex(pattern)
    return regex.fullmatch(value) is not None


_LIKE_CACHE: Dict[str, "re.Pattern"] = {}


def _like_regex(pattern: str) -> "re.Pattern":
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        parts = []
        for ch in pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        compiled = re.compile("".join(parts), re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled


_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": _operator.eq,
    "<>": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}

_ARITHMETIC: Dict[str, Callable[[Any, Any], Any]] = {
    "+": _operator.add,
    "-": _operator.sub,
    "*": _operator.mul,
    "/": lambda a, b: a / b if isinstance(a, float) or isinstance(b, float) else _int_div(a, b),
    "%": _operator.mod,
}


def _int_div(a: int, b: int) -> int:
    """SQL integer division truncates toward zero."""
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return quotient


def _eval_runtime_parameter(node: ast.RuntimeParameter, row: RowDict) -> Any:
    return node.current_value()


_DISPATCH = {
    ast.Literal: _eval_literal,
    ast.RuntimeParameter: _eval_runtime_parameter,
    ast.ColumnRef: _eval_column,
    ast.UnaryOp: _eval_unary,
    ast.BinaryOp: _eval_binary,
    ast.BetweenExpr: _eval_between,
    ast.InExpr: _eval_in,
    ast.IsNullExpr: _eval_is_null,
    ast.FunctionCall: _eval_function,
}

"""Difference bounds: ``x - y <= c`` between two columns of one row.

CHECK-style statements whose expression is a conjunction of forms like
``x <= y + c``, ``x - y <= c`` or ``x BETWEEN y + c1 AND y + c2`` (the
paper's ``ship_date`` / ``order_date`` and ``start_date`` / ``end_date``
examples) each normalize to ``x - y <= c``; an interval on one column then
implies an interval on the other.  Check soft constraints derive their
implied intervals here, and twinning reads query conjuncts the same way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.expr import analysis
from repro.expr.intervals import Interval
from repro.sql import ast


class DifferenceBound:
    """``x - y <= bound`` between two columns of one table."""

    __slots__ = ("x", "y", "bound")

    def __init__(self, x: str, y: str, bound: float) -> None:
        self.x = x
        self.y = y
        self.bound = bound

    def __repr__(self) -> str:
        return f"DifferenceBound({self.x} - {self.y} <= {self.bound})"


def difference_bounds(expression: ast.Expression) -> List[DifferenceBound]:
    """Extract every ``x - y <= c`` bound implied by the expression.

    Recognizes conjunctions of:

    * ``x <= y + c`` / ``x <= y - c`` / ``x <= y``  (and ``<``, ``>=``,
      ``>`` flipped forms),
    * ``x - y <= c`` and variants,
    * ``x BETWEEN y + c1 AND y + c2``.

    Unrecognized conjuncts contribute nothing (sound: fewer bounds).
    The expression is normalized first, so negated forms like
    ``NOT (x > y + c)`` are recognized as ``x <= y + c``.
    """
    from repro.expr.normalize import normalize

    bounds: List[DifferenceBound] = []
    for conjunct in analysis.split_conjuncts(normalize(expression)):
        bounds.extend(_bounds_of_conjunct(conjunct))
    return bounds


def _bounds_of_conjunct(node: ast.Expression) -> List[DifferenceBound]:
    if isinstance(node, ast.BetweenExpr) and not node.negated:
        low = _column_plus_constant(node.low)
        high = _column_plus_constant(node.high)
        operand = node.operand
        if not isinstance(operand, ast.ColumnRef):
            return []
        results = []
        if low is not None:
            # operand >= y + c_low  ==>  y - operand <= -c_low
            results.append(
                DifferenceBound(low[0], operand.column, -low[1])
            )
        if high is not None:
            # operand <= y + c_high  ==>  operand - y <= c_high
            results.append(
                DifferenceBound(operand.column, high[0], high[1])
            )
        return results
    if not isinstance(node, ast.BinaryOp):
        return []
    if node.op not in ("<=", "<", ">=", ">"):
        return []
    # Normalize to left <= right (strictness folded into the bound for
    # integer-like domains is skipped; <= of the same bound stays sound).
    if node.op in ("<=", "<"):
        left, right = node.left, node.right
    else:
        left, right = node.right, node.left
    left_difference = _column_minus_column(left)
    if left_difference is not None and analysis.is_constant(right):
        x, y, shift = left_difference
        constant = _as_number(analysis.constant_value(right))
        if constant is None:
            return []
        # (x - y + shift) <= c  ==>  x - y <= c - shift
        return [DifferenceBound(x, y, constant - shift)]
    left_term = _column_plus_constant(left)
    right_term = _column_plus_constant(right)
    if left_term is not None and right_term is not None:
        x, x_shift = left_term
        y, y_shift = right_term
        # x + x_shift <= y + y_shift  ==>  x - y <= y_shift - x_shift
        return [DifferenceBound(x, y, y_shift - x_shift)]
    return []


def _column_plus_constant(
    node: ast.Expression,
) -> Optional[Tuple[str, float]]:
    """Match ``column``, ``column + c`` or ``column - c``."""
    if isinstance(node, ast.ColumnRef):
        return node.column, 0.0
    if isinstance(node, ast.BinaryOp) and node.op in ("+", "-"):
        if isinstance(node.left, ast.ColumnRef) and analysis.is_constant(node.right):
            constant = _as_number(analysis.constant_value(node.right))
            if constant is None:
                return None
            sign = 1.0 if node.op == "+" else -1.0
            return node.left.column, sign * constant
        if (
            node.op == "+"
            and isinstance(node.right, ast.ColumnRef)
            and analysis.is_constant(node.left)
        ):
            constant = _as_number(analysis.constant_value(node.left))
            if constant is None:
                return None
            return node.right.column, constant
    return None


def _column_minus_column(
    node: ast.Expression,
) -> Optional[Tuple[str, str, float]]:
    """Match ``x - y`` (optionally ± constant); returns (x, y, shift)."""
    if (
        isinstance(node, ast.BinaryOp)
        and node.op == "-"
        and isinstance(node.left, ast.ColumnRef)
        and isinstance(node.right, ast.ColumnRef)
    ):
        return node.left.column, node.right.column, 0.0
    return None


def _as_number(value: object) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def derive_interval_from_bounds(
    bounds: List[DifferenceBound],
    target_column: str,
    known: Dict[str, Interval],
) -> Interval:
    """The interval implied for ``target_column`` by difference bounds.

    For each bound ``x - y <= c``:

    * with ``x == target``: ``x <= y + c`` so ``x_high <= known[y].high + c``;
    * with ``y == target``: ``y >= x - c`` so ``y_low >= known[x].low - c``.
    """
    result = Interval.unbounded()
    for bound in bounds:
        if bound.x == target_column and bound.y in known:
            other = known[bound.y]
            if other.high is not None:
                result = result.intersect(
                    Interval.at_most(float(other.high) + bound.bound)
                )
        if bound.y == target_column and bound.x in known:
            other = known[bound.x]
            if other.low is not None:
                result = result.intersect(
                    Interval.at_least(float(other.low) - bound.bound)
                )
    return result

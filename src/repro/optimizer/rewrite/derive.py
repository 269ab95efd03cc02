"""Rendering implied intervals back into query predicates.

Shared by predicate introduction, AST routing, and twinning.  What an
interval *is* comes from the soft constraint itself
(:meth:`~repro.softcon.base.SoftConstraint.implied_interval`); this
module holds the two query-side halves: the intervals a block already
implies for a binding's columns, and an interval rendered as conjuncts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.expr import analysis
from repro.expr.intervals import Interval
from repro.sql import ast


def interval_to_predicate(
    column: str, binding: Optional[str], interval: Interval
) -> Optional[ast.Expression]:
    """Render an interval as a predicate on a (qualified) column."""
    if interval.is_unbounded:
        return None
    reference = ast.ColumnRef(column, binding)
    if interval.is_empty:
        return ast.Literal(False)
    if interval.low is not None and interval.high is not None:
        if interval.low_inclusive and interval.high_inclusive:
            return ast.BetweenExpr(
                reference, ast.Literal(interval.low), ast.Literal(interval.high)
            )
        conjuncts = []
        low_op = ">=" if interval.low_inclusive else ">"
        high_op = "<=" if interval.high_inclusive else "<"
        conjuncts.append(
            ast.BinaryOp(low_op, reference, ast.Literal(interval.low))
        )
        conjuncts.append(
            ast.BinaryOp(high_op, reference, ast.Literal(interval.high))
        )
        return analysis.conjoin(conjuncts)
    if interval.low is not None:
        op = ">=" if interval.low_inclusive else ">"
        return ast.BinaryOp(op, reference, ast.Literal(interval.low))
    op = "<=" if interval.high_inclusive else "<"
    return ast.BinaryOp(op, reference, ast.Literal(interval.high))


def known_intervals_for_binding(
    predicates: List[ast.Expression], binding: str, columns: List[str]
) -> Dict[str, Interval]:
    """Per-column intervals the query already implies for one binding."""
    known: Dict[str, Interval] = {}
    for column in columns:
        interval = analysis.column_interval(
            predicates, ast.ColumnRef(column, binding)
        )
        if not interval.is_unbounded:
            known[column] = interval
    return known

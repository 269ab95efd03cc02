"""Twinned predicates for cardinality estimation (paper Section 5.1).

"The main difference is that unlike with the exploitation in the query
rewrite engine, the generated predicates are not actually applied.  We
mark these predicates as special predicates for use in the optimizer
only.  This allows us to make use of constraints that are not necessarily
valid for all the data."

For every ACTIVE soft constraint (absolute or statistical) relating two
columns of a bound table, if the query constrains one column, the implied
interval on the other is attached to the block as an
:class:`~repro.optimizer.logical.EstimationPredicate` carrying the SC's
*effective* confidence (stated confidence degraded by the currency model's
staleness margin, Section 3.3).  The cardinality estimator consolidates
these with the query's own predicates; the executor never sees them.
"""

from __future__ import annotations

from typing import Dict, List

from repro.expr import analysis
from repro.expr.difference import difference_bounds
from repro.optimizer.logical import EstimationPredicate, LogicalPlan, QueryBlock
from repro.optimizer.rewrite import derive
from repro.optimizer.rewrite.engine import RewriteContext, map_blocks
from repro.optimizer.rewrite.predicate_introduction import join_bands
from repro.sql import ast
from repro.sql.printer import sql_of


def add_twinned_predicates(
    plan: LogicalPlan, context: RewriteContext
) -> LogicalPlan:
    return map_blocks(plan, lambda block: _twin_in_block(block, context))


def _twin_in_block(block: QueryBlock, context: RewriteContext) -> QueryBlock:
    if context.registry is None:
        return block
    for bound in block.tables:
        for constraint in context.registry.estimation_usable(bound.table_name):
            _twin_interval(block, bound.binding, constraint, context)
        _hint_difference_predicates(block, bound.binding, bound.table_name, context)
    _twin_join_linear(block, context)
    return block


def _hint_difference_predicates(
    block: QueryBlock,
    binding: str,
    table_name: str,
    context: RewriteContext,
) -> None:
    """Selectivity hints for difference predicates (paper §5.1, closing
    example: "finding the number of projects completed in 5 days.  The
    predicate used in the query could be end_date - start_date <= 5").

    Check SCs held at several confidence levels give points of the
    difference's distribution: P(x - y <= bound_i) ~= confidence_i — the
    concrete answer to the paper's "should the database also keep eps_70
    and eps_80?".  Interpolating through the points estimates the query's
    own bound; without any SC the estimator would fall back to a blind
    default constant.
    """
    assert context.registry is not None
    points: Dict[tuple, List[tuple]] = {}
    for constraint in context.registry.estimation_usable(table_name):
        bounds = constraint.difference_bounds()
        if not bounds:
            continue
        confidence = context.registry.effective_confidence(constraint)
        for bound in bounds:
            points.setdefault((bound.x, bound.y), []).append(
                (bound.bound, confidence, constraint.name)
            )
    if not points:
        return
    existing = {p.expression for p in block.estimation_predicates}
    for conjunct in block.predicates:
        if analysis.tables_in(conjunct) != {binding}:
            continue
        query_bounds = difference_bounds(conjunct)
        if len(query_bounds) != 1:
            continue
        query_bound = query_bounds[0]
        confidence_points = points.get((query_bound.x, query_bound.y))
        if not confidence_points or conjunct in existing:
            continue
        fraction = _interpolate_fraction(
            query_bound.bound,
            [(b, c) for b, c, _ in confidence_points],
        )
        sources = sorted({name for _, _, name in confidence_points})
        block.estimation_predicates.append(
            EstimationPredicate(
                expression=conjunct,
                confidence=1.0,
                source=",".join(sources),
                fraction_override=fraction,
            )
        )
        context.estimation_notes.append(
            f"difference hint: P({query_bound.x} - {query_bound.y} <= "
            f"{query_bound.bound:g}) ~= {fraction:.3f} "
            f"[from {', '.join(sources)}]"
        )


def _interpolate_fraction(bound: float, points: List[tuple]) -> float:
    """Estimate P(difference <= bound) from (bound_i, confidence_i) points.

    Piecewise-linear through the sorted points; below the smallest point
    the curve runs linearly through the origin (differences are bounded
    below by the SC family's structure); above the largest it clamps to
    that point's confidence (a sound lower estimate).
    """
    ordered = sorted(points)
    smallest_bound, smallest_conf = ordered[0]
    largest_bound, largest_conf = ordered[-1]
    if bound >= largest_bound:
        return min(1.0, largest_conf)
    if bound <= smallest_bound:
        if smallest_bound <= 0:
            return max(0.0, min(1.0, smallest_conf))
        return max(0.0, min(1.0, smallest_conf * bound / smallest_bound))
    for (b_low, c_low), (b_high, c_high) in zip(ordered, ordered[1:]):
        if b_low <= bound <= b_high:
            if b_high == b_low:
                return max(0.0, min(1.0, c_high))
            weight = (bound - b_low) / (b_high - b_low)
            return max(0.0, min(1.0, c_low + weight * (c_high - c_low)))
    return max(0.0, min(1.0, largest_conf))


def _twin_join_linear(block: QueryBlock, context: RewriteContext) -> None:
    """Estimation-only bands from inter-table correlations (any confidence)."""
    assert context.registry is not None
    usable = context.registry.estimation_usable()
    for constraint, binding, column, band, _ in join_bands(block, usable):
        _attach(
            block, binding, column, band,
            context.registry.effective_confidence(constraint), constraint.name,
            context,
        )


def _attach(
    block: QueryBlock,
    binding: str,
    column: str,
    interval,
    confidence: float,
    constraint_name: str,
    context: RewriteContext,
    linked_columns: tuple = (),
) -> None:
    if interval.is_unbounded or interval.is_empty:
        return
    existing = analysis.column_interval(
        block.predicates, ast.ColumnRef(column, binding)
    )
    if existing.is_unbounded:
        # DB2 twinning pairs the generated predicate with an *existing*
        # predicate on the target column (the paper: "we now have two
        # predicates on the start_date column").  A twin on an otherwise
        # unconstrained column would be multiplied as if independent of
        # the predicate that implied it — an unsound double count.
        return
    if interval.contains_interval(existing):
        return  # the query already implies the twin — nothing to gain
    predicate = derive.interval_to_predicate(column, binding, interval)
    if predicate is None:
        return
    existing = {e.expression for e in block.estimation_predicates}
    if predicate in existing:
        return
    block.estimation_predicates.append(
        EstimationPredicate(
            expression=predicate,
            confidence=confidence,
            source=constraint_name,
            linked_columns=linked_columns,
        )
    )
    context.estimation_notes.append(
        f"twinned ({confidence * 100:.0f}%): {sql_of(predicate)} "
        f"[from {constraint_name}]"
    )


def _twin_interval(
    block: QueryBlock,
    binding: str,
    constraint,
    context: RewriteContext,
) -> None:
    """Twin every interval the SC implies between the binding's columns."""
    columns = constraint.interval_columns()
    known = derive.known_intervals_for_binding(
        block.predicates, binding, columns
    )
    if not known:
        return
    confidence = context.registry.effective_confidence(constraint)
    for target in columns:
        _attach(
            block, binding, target,
            constraint.implied_interval(target, known), confidence,
            constraint.name, context, linked_columns=tuple(columns),
        )

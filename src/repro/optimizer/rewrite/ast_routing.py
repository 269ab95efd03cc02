"""ASC-as-AST routing: exception-table union plans (paper Section 4.4).

Given a query over a base table that carries an exception table (the
materialized violations of a soft constraint), the query can be answered
as

    (SELECT ... FROM base WHERE query-preds AND introduced-pred)
    UNION ALL
    (SELECT ... FROM exceptions WHERE query-preds)

The introduced predicate is implied *for conforming rows* by the SC and
the query's own predicates; rows where it fails are — by construction —
in the exception table, so the union is exact regardless of the SC's
confidence.  ``UNION ALL`` is safe because the branches are disjoint
("we know that the two sub-queries must return mutually distinct tuples").

The rewrite fires only when the introduced predicate would actually open
an index path on the base table (the cost-based justification), and only
for plain blocks (no grouping/distinct — aggregation does not distribute
over UNION ALL).
"""

from __future__ import annotations

from typing import Optional

from repro.expr import analysis
from repro.optimizer.logical import LogicalPlan, QueryBlock, UnionPlan
from repro.optimizer.rewrite import derive
from repro.optimizer.rewrite.engine import RewriteContext
from repro.softcon.base import SCState
from repro.softcon.exceptions_ast import ExceptionTable
from repro.sql import ast


def route_through_exceptions(
    plan: LogicalPlan, context: RewriteContext
) -> LogicalPlan:
    if isinstance(plan, UnionPlan):
        # Routing inside an existing union is possible but the nesting buys
        # nothing extra for the paper's experiments; keep it simple.
        return plan
    routed = _route_block(plan, context)
    return routed if routed is not None else plan


def _route_block(
    block: QueryBlock, context: RewriteContext
) -> Optional[UnionPlan]:
    if len(block.tables) != 1 or block.is_grouped or block.distinct:
        return None
    bound = block.tables[0]
    for name, definition in context.database.catalog.summary_tables().items():
        if not isinstance(definition, ExceptionTable):
            continue
        if definition.base_table != bound.table_name:
            continue
        constraint = definition.constraint
        if constraint.state is not SCState.ACTIVE:
            continue
        introduced = _derive_introduced(block, bound.binding, constraint)
        if introduced is None:
            continue
        column, interval = introduced
        if not _opens_index_path(context, bound.table_name, column):
            continue
        predicate = derive.interval_to_predicate(
            column, bound.binding, interval
        )
        if predicate is None:
            continue
        conforming = block.copy()
        conforming.order_by = []
        conforming.limit = None
        # The conforming branch carries the SC's own condition — that is
        # what makes it exactly disjoint from the exception table (which
        # holds the NOT-condition rows).  The derived range is *implied*
        # by (condition AND query predicates); it is added purely to open
        # the index access path.
        condition = _condition_expression(constraint, bound.binding)
        conforming.predicates = list(block.predicates) + [condition, predicate]
        exceptions = block.copy()
        exceptions.order_by = []
        exceptions.limit = None
        exceptions.tables = [
            type(bound)(definition.name, bound.binding)
        ]
        # The introduced range copies the query's bounds into the plan.
        context.pin(
            derive.source_conjuncts(
                block.predicates, bound.binding, constraint.interval_columns()
            )
        )
        context.depend_on(constraint.name)
        context.record(
            "ast_routing",
            f"routed {bound.table_name} through exception AST "
            f"{definition.name} (introduced range on "
            f"{bound.binding}.{column})",
        )
        return UnionPlan(
            blocks=[conforming, exceptions],
            order_by=block.order_by,
            limit=block.limit,
        )
    return None


def _condition_expression(constraint, binding: str) -> ast.Expression:
    """The SC's defining condition, qualified to the query's binding."""
    expression = constraint.row_condition()
    mapping = {
        reference.column: ast.ColumnRef(reference.column, binding)
        for reference in analysis.columns_in(expression)
    }
    qualified = analysis.substitute_columns(expression, mapping)
    # The exception table holds rows where the condition is *False*;
    # UNKNOWN rows (NULLs) satisfy a CHECK, so the conforming branch must
    # accept them too: condition IS NOT FALSE, spelled in 3VL as
    # ``condition OR (condition IS NULL)``.
    return ast.BinaryOp("or", qualified, ast.IsNullExpr(qualified))


def _derive_introduced(
    block: QueryBlock, binding: str, constraint
) -> Optional[tuple]:
    """(column, interval) the SC implies for conforming rows, if any."""
    columns = constraint.interval_columns()
    known = derive.known_intervals_for_binding(
        block.predicates, binding, columns
    )
    for target in columns:
        if target in known:
            continue
        interval = constraint.implied_interval(target, known)
        if not interval.is_unbounded:
            return target, interval
    return None


def _opens_index_path(
    context: RewriteContext, table_name: str, column: str
) -> bool:
    return (
        context.database.catalog.find_index(table_name, [column]) is not None
    )

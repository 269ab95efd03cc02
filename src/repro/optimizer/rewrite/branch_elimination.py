"""UNION ALL branch knockout (paper Section 5).

Each branch of a UNION ALL view typically carries a range constraint on
some column ("the first branch contains data corresponding to January...").
Matching the query's predicates against each branch's constraints lets the
optimizer "knock off the branches of the union view that we know will not
contain any data that will satisfy the query".

Constraint sources, per branch table:

* hard and informational CHECK constraints from the catalog;
* the row conjuncts of ACTIVE *absolute* soft constraints (check and
  min/max kinds; SSCs cannot knock out a branch — some rows may disagree
  with the statement).

A branch is eliminated when, for some column, the interval implied by the
branch's constraints does not overlap the interval demanded by the query.
"""

from __future__ import annotations

from typing import List

from repro.engine.constraints import CheckConstraint
from repro.expr import analysis
from repro.optimizer.logical import LogicalPlan, QueryBlock, UnionPlan
from repro.optimizer.rewrite.engine import RewriteContext
from repro.sql import ast


def eliminate_branches(
    plan: LogicalPlan, context: RewriteContext
) -> LogicalPlan:
    if not isinstance(plan, UnionPlan):
        return plan
    surviving: List[QueryBlock] = []
    for number, block in enumerate(plan.blocks):
        if _block_is_empty(block, context):
            context.record(
                "branch_elimination",
                f"knocked out branch {number + 1} "
                f"({', '.join(b.table_name for b in block.tables)})",
            )
            continue
        surviving.append(block)
    if not surviving:
        # Keep one branch with a FALSE predicate so the plan retains its
        # output shape while returning no rows.
        kept = plan.blocks[0].copy()
        kept.predicates.append(ast.Literal(False))
        surviving = [kept]
    return UnionPlan(blocks=surviving, order_by=plan.order_by, limit=plan.limit)


def _block_is_empty(block: QueryBlock, context: RewriteContext) -> bool:
    """Whether some table's constraints contradict the block's predicates."""
    for bound in block.tables:
        constraint_conjuncts: List[ast.Expression] = []
        sc_names: List[str] = []
        for constraint in context.database.catalog.constraints_on(
            bound.table_name
        ):
            if isinstance(constraint, CheckConstraint) and constraint.expression is not None:
                constraint_conjuncts.extend(
                    analysis.split_conjuncts(constraint.expression)
                )
        if context.registry is not None:
            for soft in context.registry.rewrite_usable(bound.table_name):
                conjuncts = soft.row_conjuncts()
                if conjuncts:
                    constraint_conjuncts.extend(conjuncts)
                    sc_names.append(soft.name)
        if not constraint_conjuncts:
            continue
        # Knocked out or not, the outcome follows from the query's values.
        context.pin(block.predicates)
        if _contradicts(block, bound.binding, constraint_conjuncts):
            for name in sc_names:
                context.depend_on(name)
            return True
    return False


def _contradicts(
    block: QueryBlock,
    binding: str,
    constraint_conjuncts: List[ast.Expression],
) -> bool:
    """Does any column's constraint interval miss the query interval?"""
    columns = {
        reference.column
        for conjunct in constraint_conjuncts
        for reference in analysis.columns_in(conjunct)
    }
    for column in columns:
        constraint_interval = analysis.column_interval(
            constraint_conjuncts, ast.ColumnRef(column)
        )
        if constraint_interval.is_unbounded:
            continue
        query_interval = analysis.column_interval(
            block.predicates, ast.ColumnRef(column, binding)
        )
        if query_interval.is_unbounded:
            continue
        if not constraint_interval.overlaps(query_interval):
            return True
    return False

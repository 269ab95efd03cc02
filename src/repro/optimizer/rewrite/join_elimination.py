"""Join elimination over referential integrity ([6], Section 2).

A join ``child ⋈ parent`` over a foreign key can be removed when:

* the join condition is exactly the FK's column pairing;
* the parent's referenced columns are a PRIMARY KEY / UNIQUE constraint
  (each child row matches at most one parent row — no duplication);
* every child FK column is NOT NULL (each child row matches at least one
  parent row — no row loss);
* nothing else in the query references the parent binding.

Informational (NOT ENFORCED) foreign keys qualify too — that is the point
of informational constraints: the promise substitutes for checking.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine.constraints import (
    ForeignKeyConstraint,
    NotNullConstraint,
    UniqueConstraint,
)
from repro.expr import analysis
from repro.optimizer.logical import LogicalPlan, QueryBlock
from repro.optimizer.rewrite.engine import RewriteContext, map_blocks
from repro.sql import ast


def eliminate_joins(plan: LogicalPlan, context: RewriteContext) -> LogicalPlan:
    return map_blocks(plan, lambda block: _eliminate_in_block(block, context))


def _eliminate_in_block(
    block: QueryBlock, context: RewriteContext
) -> QueryBlock:
    changed = True
    while changed:
        changed = False
        for bound in list(block.tables):
            if _try_eliminate_parent(block, bound.binding, context):
                changed = True
                break
    return block


def _try_eliminate_parent(
    block: QueryBlock, parent_binding: str, context: RewriteContext
) -> bool:
    parent_table = block.table_for_binding(parent_binding)
    if parent_table is None or len(block.tables) < 2:
        return False
    catalog = context.database.catalog
    for fk in catalog.foreign_keys_referencing(parent_table):
        child_binding = block.binding_of(fk.table_name)
        if child_binding is None or child_binding == parent_binding:
            continue
        join_conjuncts = _fk_join_conjuncts(
            block, fk, child_binding, parent_binding
        )
        if join_conjuncts is None:
            continue
        if not _parent_key_unique(catalog, fk):
            continue
        if not _child_columns_not_null(context, fk):
            continue
        if _binding_used_elsewhere(block, parent_binding, join_conjuncts):
            continue
        block.tables = [
            bound for bound in block.tables if bound.binding != parent_binding
        ]
        block.predicates = [
            conjunct
            for conjunct in block.predicates
            if conjunct not in join_conjuncts
        ]
        context.record(
            "join_elimination",
            f"removed {parent_table} AS {parent_binding} via FK {fk.name}",
        )
        return True
    return False


def _fk_join_conjuncts(
    block: QueryBlock,
    fk: ForeignKeyConstraint,
    child_binding: str,
    parent_binding: str,
) -> Optional[List[ast.Expression]]:
    """The block conjuncts realizing the FK join, or None if incomplete."""
    found: List[ast.Expression] = []
    for child_column, parent_column in zip(fk.column_names, fk.parent_columns):
        match = None
        for conjunct in block.predicates:
            pair = analysis.match_equijoin(conjunct)
            if pair is None:
                continue
            left, right = pair
            if (
                left.table == child_binding
                and left.column == child_column
                and right.table == parent_binding
                and right.column == parent_column
            ) or (
                right.table == child_binding
                and right.column == child_column
                and left.table == parent_binding
                and left.column == parent_column
            ):
                match = conjunct
                break
        if match is None:
            return None
        found.append(match)
    return found


def _parent_key_unique(catalog, fk: ForeignKeyConstraint) -> bool:
    for constraint in catalog.constraints_on(fk.parent_table):
        if isinstance(constraint, UniqueConstraint) and (
            constraint.column_names == fk.parent_columns
        ):
            return True
    return False


def _child_columns_not_null(
    context: RewriteContext, fk: ForeignKeyConstraint
) -> bool:
    schema = context.database.table(fk.table_name).schema
    declared_not_null = {
        constraint.column_name
        for constraint in context.database.catalog.constraints_on(fk.table_name)
        if isinstance(constraint, NotNullConstraint)
    }
    for column_name in fk.column_names:
        column = schema.column(column_name)
        if not column.nullable:
            continue
        if column_name in declared_not_null:
            continue
        return False
    return True


def _binding_used_elsewhere(
    block: QueryBlock,
    binding: str,
    join_conjuncts: List[ast.Expression],
) -> bool:
    """Is the parent binding referenced outside the FK join conjuncts?"""

    def mentions(expression: ast.Expression) -> bool:
        return binding in analysis.tables_in(expression)

    for conjunct in block.predicates:
        if conjunct in join_conjuncts:
            continue
        if mentions(conjunct):
            return True
    for output in block.output:
        if mentions(output.expression):
            return True
    for key in block.group_by + block.group_carried:
        if mentions(key):
            return True
    for aggregate in block.aggregates:
        if aggregate.argument is not None and mentions(aggregate.argument):
            return True
    if block.having is not None and mentions(block.having):
        return True
    for expression, _ in block.order_by:
        if mentions(expression):
            return True
    for estimation in block.estimation_predicates:
        if mentions(estimation.expression):
            return True
    return False

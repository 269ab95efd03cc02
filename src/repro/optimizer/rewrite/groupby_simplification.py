"""GROUP BY / ORDER BY simplification via functional dependencies.

Paper (Section 2, citing [29]): FDs beyond key information "are most
effective to optimize group by and order by queries when it can be
inferred that some of the group by / order by attributes are superfluous.
This can save on sorting costs and sometimes eliminate sorting from the
query plan completely."

FD sources:

* PRIMARY KEY / UNIQUE constraints (hard or informational): the key
  columns determine every column of their table;
* ACTIVE *absolute* FD soft constraints (typically discovered by
  :mod:`repro.discovery.fd_miner` over denormalized tables).

A GROUP BY key is removed when the remaining keys (on the same binding)
functionally determine it; it moves to ``group_carried`` so the group
operator still emits its (group-constant) value.  Trailing ORDER BY keys
determined by the keys before them are dropped outright.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.engine.constraints import UniqueConstraint
from repro.optimizer.logical import LogicalPlan, QueryBlock
from repro.optimizer.rewrite.engine import RewriteContext, map_blocks
from repro.sql import ast


def simplify_grouping(plan: LogicalPlan, context: RewriteContext) -> LogicalPlan:
    return map_blocks(plan, lambda block: _simplify_block(block, context))


def _simplify_block(block: QueryBlock, context: RewriteContext) -> QueryBlock:
    if block.group_by:
        _simplify_group_by(block, context)
    if block.order_by:
        _simplify_order_by(block, context)
    return block


def _fds_for_table(
    context: RewriteContext, table_name: str
) -> List[Tuple[Set[str], Set[str], str]]:
    """(determinants, dependents, source) triples for one table."""
    fds: List[Tuple[Set[str], Set[str], str]] = []
    schema = context.database.table(table_name).schema
    all_columns = set(schema.column_names())
    for constraint in context.database.catalog.constraints_on(table_name):
        if isinstance(constraint, UniqueConstraint):
            key = set(constraint.column_names)
            fds.append((key, all_columns - key, f"key:{constraint.name}"))
    if context.registry is not None:
        for soft in context.registry.rewrite_usable(table_name):
            fd = soft.functional_dependency()
            if fd is not None:
                determinants, dependents = fd
                fds.append((set(determinants), set(dependents), f"sc:{soft.name}"))
    return fds


def _determined(
    context: RewriteContext,
    target: ast.ColumnRef,
    available: List[ast.ColumnRef],
    block: QueryBlock,
) -> Tuple[bool, str]:
    """Is ``target`` functionally determined by ``available`` columns?

    Only same-binding determination is used (an FD speaks about one
    table's rows).  Returns (yes/no, source description).
    """
    table_name = block.table_for_binding(target.table or "")
    if table_name is None:
        return False, ""
    same_binding = {
        ref.column for ref in available if ref.table == target.table
    }
    for determinants, dependents, source in _fds_for_table(context, table_name):
        if determinants <= same_binding and target.column in dependents:
            return True, source
    return False, ""


def _simplify_group_by(block: QueryBlock, context: RewriteContext) -> None:
    keys: List[ast.ColumnRef] = [
        key for key in block.group_by if isinstance(key, ast.ColumnRef)
    ]
    if len(keys) != len(block.group_by):
        return  # non-column keys: leave untouched
    kept = list(keys)
    for key in keys:
        others = [other for other in kept if other != key]
        if not others:
            continue
        determined, source = _determined(context, key, others, block)
        if determined:
            kept = others
            block.group_carried.append(key)
            if source.startswith("sc:"):
                context.depend_on(source[3:])
            context.record(
                "groupby_simplification",
                f"dropped {key.qualified} from GROUP BY ({source})",
            )
    block.group_by = list(kept)


def _simplify_order_by(block: QueryBlock, context: RewriteContext) -> None:
    """Drop trailing ORDER BY keys determined by the preceding keys."""
    kept: List[Tuple[ast.Expression, bool]] = []
    prefix: List[ast.ColumnRef] = []
    for expression, ascending in block.order_by:
        if isinstance(expression, ast.ColumnRef) and expression.table is not None and prefix:
            determined, source = _determined(context, expression, prefix, block)
            if determined:
                if source.startswith("sc:"):
                    context.depend_on(source[3:])
                context.record(
                    "groupby_simplification",
                    f"dropped {expression.qualified} from ORDER BY ({source})",
                )
                continue
        kept.append((expression, ascending))
        if isinstance(expression, ast.ColumnRef):
            prefix.append(expression)
    block.order_by = kept

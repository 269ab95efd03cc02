"""Binding: SQL AST → logical query blocks.

The builder resolves every name against the catalog, qualifies every
column reference with its table binding, flattens WHERE and JOIN ... ON
conditions into the block's conjunct pool, and normalizes the projection /
grouping clauses.  It rejects what the engine does not support (LEFT
JOINs, aggregates nested in scalar expressions, non-column GROUP BY keys)
with clear errors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.engine.database import Database
from repro.engine.schema import TableSchema
from repro.errors import BindError
from repro.expr import analysis
from repro.expr.normalize import normalize
from repro.optimizer.logical import (
    Aggregate,
    BoundTable,
    OutputColumn,
    QueryBlock,
    UnionPlan,
)
from repro.sql import ast


def build_logical_plan(
    database: Database, statement: Union[ast.SelectStatement, ast.UnionAll]
) -> Union[QueryBlock, UnionPlan]:
    """Bind a SELECT or UNION ALL statement into logical form."""
    if isinstance(statement, ast.UnionAll):
        blocks = [
            _build_block(database, branch) for branch in statement.branches
        ]
        _check_union_compatible(blocks)
        order_by = [
            (item.expression, item.ascending) for item in statement.order_by
        ]
        # Outer ORDER BY of a union refers to output column names.
        return UnionPlan(blocks=blocks, order_by=order_by, limit=statement.limit)
    return _build_block(database, statement)


def _check_union_compatible(blocks: List[QueryBlock]) -> None:
    widths = {len(block.output) for block in blocks}
    if len(widths) > 1:
        raise BindError(
            f"UNION ALL branches have different column counts: {sorted(widths)}"
        )


class _Binder:
    """Name resolution scope for one query block."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.schemas: Dict[str, TableSchema] = {}  # binding -> schema
        self.tables: List[BoundTable] = []

    def add_table(self, ref: ast.TableRef) -> None:
        binding = ref.binding
        if binding in self.schemas:
            raise BindError(f"duplicate table binding {binding!r}")
        schema = self.database.table(ref.name).schema
        self.schemas[binding] = schema
        self.tables.append(BoundTable(ref.name, binding))

    def qualify(self, expression: ast.Expression) -> ast.Expression:
        """Return the expression with every column reference qualified."""
        if isinstance(expression, ast.ColumnRef):
            return self.resolve_column(expression)
        if isinstance(expression, (ast.Literal, ast.RuntimeParameter)):
            return expression
        if isinstance(expression, ast.UnaryOp):
            return ast.UnaryOp(expression.op, self.qualify(expression.operand))
        if isinstance(expression, ast.BinaryOp):
            return ast.BinaryOp(
                expression.op,
                self.qualify(expression.left),
                self.qualify(expression.right),
            )
        if isinstance(expression, ast.BetweenExpr):
            return ast.BetweenExpr(
                self.qualify(expression.operand),
                self.qualify(expression.low),
                self.qualify(expression.high),
                negated=expression.negated,
            )
        if isinstance(expression, ast.InExpr):
            return ast.InExpr(
                self.qualify(expression.operand),
                tuple(self.qualify(item) for item in expression.items),
                negated=expression.negated,
            )
        if isinstance(expression, ast.IsNullExpr):
            return ast.IsNullExpr(
                self.qualify(expression.operand), negated=expression.negated
            )
        if isinstance(expression, ast.FunctionCall):
            return ast.FunctionCall(
                expression.name,
                tuple(self.qualify(arg) for arg in expression.args),
                distinct=expression.distinct,
                star=expression.star,
            )
        raise BindError(f"cannot bind {type(expression).__name__}")

    def resolve_column(self, column: ast.ColumnRef) -> ast.ColumnRef:
        if column.table is not None:
            schema = self.schemas.get(column.table)
            if schema is None:
                raise BindError(f"unknown table binding {column.table!r}")
            if column.column not in schema:
                raise BindError(
                    f"table {column.table!r} has no column {column.column!r}"
                )
            return column
        owners = [
            binding
            for binding, schema in self.schemas.items()
            if column.column in schema
        ]
        if not owners:
            raise BindError(f"unknown column {column.column!r}")
        if len(owners) > 1:
            raise BindError(
                f"ambiguous column {column.column!r} (in {sorted(owners)})"
            )
        return ast.ColumnRef(column.column, owners[0])


def _build_block(
    database: Database, statement: ast.SelectStatement
) -> QueryBlock:
    binder = _Binder(database)
    block = QueryBlock()
    conjuncts: List[ast.Expression] = []
    if not statement.from_clause:
        raise BindError("SELECT without FROM is not supported")
    for item in statement.from_clause:
        conjuncts.extend(_bind_from_item(binder, item))
    block.tables = binder.tables

    if statement.where is not None:
        normalized = normalize(statement.where)
        conjuncts.extend(analysis.split_conjuncts(normalized))
    block.predicates = [binder.qualify(conjunct) for conjunct in conjuncts]

    # -- grouping ----------------------------------------------------------
    group_keys = [binder.qualify(expr) for expr in statement.group_by]
    for key in group_keys:
        if not isinstance(key, ast.ColumnRef):
            raise BindError("GROUP BY keys must be plain columns")
    block.group_by = group_keys

    has_aggregates = any(
        item.expression is not None
        and analysis.contains_aggregate(item.expression)
        for item in statement.select_items
    ) or (
        statement.having is not None
        and analysis.contains_aggregate(statement.having)
    )
    grouped = bool(group_keys) or has_aggregates

    # -- projection ------------------------------------------------------------
    used_names: Dict[str, int] = {}
    for item in statement.select_items:
        for output in _bind_select_item(binder, item, block, grouped, used_names):
            block.output.append(output)

    if grouped:
        _validate_grouped_outputs(block)

    # -- having -------------------------------------------------------------------
    if statement.having is not None:
        if not grouped:
            raise BindError("HAVING requires GROUP BY or aggregates")
        block.having = _rewrite_having(
            binder.qualify(statement.having), block, used_names
        )

    # -- order by / limit / distinct --------------------------------------------------
    output_names = {output.name for output in block.output}
    for order in statement.order_by:
        expression = order.expression
        if grouped and analysis.contains_aggregate(expression):
            bound = _rewrite_having(binder.qualify(expression), block, used_names)
        else:
            # Prefer binding to a table column (so FD-based ORDER BY
            # simplification can reason about it); fall back to an output
            # alias when the name is not a column in scope.
            try:
                bound = binder.qualify(expression)
            except BindError:
                if (
                    isinstance(expression, ast.ColumnRef)
                    and expression.table is None
                    and expression.column in output_names
                ):
                    bound = expression
                else:
                    raise
        block.order_by.append((bound, order.ascending))
    block.limit = statement.limit
    block.distinct = statement.distinct
    return block


def _bind_from_item(
    binder: _Binder, item: Union[ast.TableRef, ast.Join]
) -> List[ast.Expression]:
    """Register tables; returns the join conditions found."""
    if isinstance(item, ast.TableRef):
        binder.add_table(item)
        return []
    if item.kind == "left":
        raise BindError("LEFT JOIN is not supported by this engine")
    conditions = _bind_from_item(binder, item.left)
    conditions += _bind_from_item(binder, item.right)
    if item.condition is not None:
        normalized = normalize(item.condition)
        conditions += analysis.split_conjuncts(normalized)
    return conditions


def _bind_select_item(
    binder: _Binder,
    item: ast.SelectItem,
    block: QueryBlock,
    grouped: bool,
    used_names: Dict[str, int],
) -> List[OutputColumn]:
    if item.star:
        return _expand_star(binder, item.star_table, used_names)
    assert item.expression is not None
    expression = binder.qualify(item.expression)
    if analysis.contains_aggregate(expression):
        if not isinstance(expression, ast.FunctionCall) or not expression.is_aggregate:
            raise BindError(
                "aggregates may not be nested inside scalar expressions"
            )
        name = item.alias or _fresh_name(expression.name, used_names)
        argument = None if expression.star else expression.args[0]
        if argument is None and not expression.star:
            raise BindError(f"{expression.name.upper()} needs an argument")
        block.aggregates.append(
            Aggregate(
                function=expression.name,
                argument=argument,
                distinct=expression.distinct,
                output_name=name,
            )
        )
        return [OutputColumn(ast.ColumnRef(name), name)]
    if isinstance(expression, ast.ColumnRef):
        default_name = expression.column
    else:
        default_name = None
    name = item.alias or _fresh_name(default_name or "col", used_names, default_name is not None)
    return [OutputColumn(expression, name)]


def _expand_star(
    binder: _Binder, star_table: Optional[str], used_names: Dict[str, int]
) -> List[OutputColumn]:
    bindings = (
        [star_table] if star_table is not None else list(binder.schemas)
    )
    outputs: List[OutputColumn] = []
    for binding in bindings:
        schema = binder.schemas.get(binding)
        if schema is None:
            raise BindError(f"unknown table binding {binding!r}")
        for column in schema.columns:
            name = _fresh_name(column.name, used_names, True)
            outputs.append(
                OutputColumn(ast.ColumnRef(column.name, binding), name)
            )
    return outputs


def _fresh_name(
    base: str, used_names: Dict[str, int], keep_first: bool = False
) -> str:
    """Allocate a unique output name (``x``, ``x_2``, ``x_3``...)."""
    count = used_names.get(base, 0)
    used_names[base] = count + 1
    if count == 0 and (keep_first or base != "col"):
        return base
    return f"{base}_{count + 1}" if base != "col" else f"col{count + 1}"


def _validate_grouped_outputs(block: QueryBlock) -> None:
    """Every non-aggregate output must be a grouping key."""
    keys = set(block.group_by)
    aggregate_names = {agg.output_name for agg in block.aggregates}
    for output in block.output:
        expression = output.expression
        if (
            isinstance(expression, ast.ColumnRef)
            and expression.table is None
            and expression.column in aggregate_names
        ):
            continue
        if expression in keys:
            continue
        raise BindError(
            f"output {output.name!r} is neither an aggregate nor a GROUP BY key"
        )


def _rewrite_having(
    expression: ast.Expression,
    block: QueryBlock,
    used_names: Dict[str, int],
) -> ast.Expression:
    """Replace aggregate calls in HAVING/ORDER BY with aggregate outputs.

    Aggregates already computed for the select list are reused; new ones
    are added to the block as hidden aggregates.
    """
    if isinstance(expression, ast.FunctionCall) and expression.is_aggregate:
        argument = None if expression.star else expression.args[0]
        for aggregate in block.aggregates:
            if (
                aggregate.function == expression.name
                and aggregate.argument == argument
                and aggregate.distinct == expression.distinct
            ):
                return ast.ColumnRef(aggregate.output_name)
        name = _fresh_name(f"__{expression.name}", used_names)
        block.aggregates.append(
            Aggregate(
                function=expression.name,
                argument=argument,
                distinct=expression.distinct,
                output_name=name,
            )
        )
        return ast.ColumnRef(name)
    if isinstance(expression, ast.BinaryOp):
        return ast.BinaryOp(
            expression.op,
            _rewrite_having(expression.left, block, used_names),
            _rewrite_having(expression.right, block, used_names),
        )
    if isinstance(expression, ast.UnaryOp):
        return ast.UnaryOp(
            expression.op, _rewrite_having(expression.operand, block, used_names)
        )
    if isinstance(expression, ast.BetweenExpr):
        return ast.BetweenExpr(
            _rewrite_having(expression.operand, block, used_names),
            _rewrite_having(expression.low, block, used_names),
            _rewrite_having(expression.high, block, used_names),
            negated=expression.negated,
        )
    return expression

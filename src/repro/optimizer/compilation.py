"""Attach compiled expressions to a physical plan.

:func:`attach_compiled_expressions` walks a freshly optimized plan and
sets the ``compiled_*`` slots on every expression-bearing node (scans,
filters, join conditions/keys, group-by keys/having/carried, aggregate
arguments, extend outputs) to the expression's
:class:`~repro.expr.compile.CompiledExpr`, whose numpy kernel is
lowered onto it the first time the production executor runs it.  Sort
keys become ``(compiled expression, ascending)`` passes.  Running at
``Optimizer.optimize`` time means
:class:`~repro.optimizer.planner.PlanCache` hits reuse the compiled
expressions and kernels for free, and invalidation/backup reversion
recompiles through the shared compile cache (identical predicates hit).

A second walk records on every scan the names the operators above it
read its columns by (``read_columns``; see :func:`_mark_read_columns`),
so a scan emits only those columns and a cached plan keeps the set.

Only the production executor reads the slots.  A plan built with
``OptimizerConfig.compile_expressions=False`` has ``plan.compiled``
false, and :meth:`~repro.executor.runtime.Executor.execute` routes it
to the row-at-a-time oracle, which interprets every expression through
:func:`~repro.expr.eval.evaluate`.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.expr.analysis import columns_in
from repro.expr.compile import CompiledExpr, cache_stats, compile_expr
from repro.optimizer.physical import (
    Distinct,
    Extend,
    Filter,
    GroupBy,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    PhysicalNode,
    PhysicalPlan,
    Project,
    SeqScan,
    Sort,
)
from repro.sql import ast


def _optional(expression: Optional[ast.Expression]) -> Optional[CompiledExpr]:
    return None if expression is None else compile_expr(expression)


def attach_compiled_expressions(plan: PhysicalPlan) -> None:
    """Compile every expression in ``plan`` and record cache traffic."""
    hits_before, misses_before = cache_stats()
    _attach(plan.root)
    _mark_read_columns(plan.root, None)
    hits_after, misses_after = cache_stats()
    plan.compiled = True
    plan.compile_cache_hits = hits_after - hits_before
    plan.compile_cache_misses = misses_after - misses_before


def _attach(node: PhysicalNode) -> None:
    if isinstance(node, (SeqScan, IndexScan)):
        node.compiled_predicate = _optional(node.predicate)
    elif isinstance(node, Filter):
        node.compiled_predicate = compile_expr(node.predicate)
    elif isinstance(node, NestedLoopJoin):
        node.compiled_condition = _optional(node.condition)
    elif isinstance(node, HashJoin):
        node.compiled_left_keys = [compile_expr(key) for key in node.left_keys]
        node.compiled_right_keys = [compile_expr(key) for key in node.right_keys]
        node.compiled_residual = _optional(node.residual)
    elif isinstance(node, GroupBy):
        node.compiled_keys = [compile_expr(key) for key in node.keys]
        node.compiled_carried = [compile_expr(col) for col in node.carried]
        node.compiled_having = _optional(node.having)
        node.compiled_aggregate_args = [
            _optional(agg.argument) for agg in node.aggregates
        ]
    elif isinstance(node, Extend):
        node.compiled_outputs = [
            compile_expr(out.expression) for out in node.outputs
        ]
    elif isinstance(node, Sort):
        node.compiled_order = [
            (compile_expr(expr), ascending) for expr, ascending in node.order
        ]
    for child in node.children():
        _attach(child)


#: The names an operator reads columns by, as its expressions write them
#: (``t.a`` or a bare ``a``); None stands for every column.
Needed = Optional[FrozenSet[str]]


def _read(
    needed: Needed, *expressions: Optional[ast.Expression]
) -> Needed:
    """``needed`` plus the name of every column ``expressions`` read."""
    if needed is None:
        return None
    names = set(needed)
    for expression in expressions:
        if expression is not None:
            names.update(column.qualified for column in columns_in(expression))
    return frozenset(names)


def _mark_read_columns(node: PhysicalNode, needed: Needed) -> None:
    """Set ``read_columns`` on every scan under ``node``, whose output
    the operators above read by the names ``needed``.

    A scan keeps a column that some name reads bare, or qualified by its
    binding: an unqualified reference still sees every candidate column
    (and is still ambiguous when two survive), and a qualified one, which
    looks up its own binding's column first, never reads another
    binding's.  A Project reads only its sources; a GroupBy only its
    keys, carried columns, HAVING and aggregate arguments; a Distinct
    reads every column of its input, and so does the plan's caller.
    """
    if isinstance(node, (SeqScan, IndexScan)):
        node.read_columns = _read(needed, node.predicate)
        return
    if isinstance(node, Filter):
        needed = _read(needed, node.predicate)
    elif isinstance(node, NestedLoopJoin):
        needed = _read(needed, node.condition)
    elif isinstance(node, HashJoin):
        needed = _read(needed, *node.left_keys, *node.right_keys, node.residual)
    elif isinstance(node, GroupBy):
        needed = _read(
            frozenset(),
            *node.keys,
            *node.carried,
            node.having,
            *(aggregate.argument for aggregate in node.aggregates),
        )
    elif isinstance(node, Extend):
        needed = _read(needed, *(output.expression for output in node.outputs))
        if needed is not None:
            needed |= {output.name for output in node.outputs}
    elif isinstance(node, Sort):
        needed = _read(needed, *(expression for expression, _ in node.order))
    elif isinstance(node, Project):
        needed = frozenset(node.names) | frozenset(node.source_names)
    elif isinstance(node, Distinct):
        needed = None
    for child in node.children():
        _mark_read_columns(child, needed)

"""Attach compiled expressions to a physical plan.

:func:`attach_compiled_expressions` walks a freshly optimized plan and
sets the ``compiled_*`` slots on every expression-bearing node (scans,
filters, join conditions/keys, group-by keys/having/carried, aggregate
arguments, extend outputs) to the expression's
:class:`~repro.expr.compile.CompiledExpr` — its batch closure, and the
numpy kernel lowered onto it the first time a scan, filter or hash-join
key runs it.  Sort keys become ``(batch closure, ascending)`` passes.
Running at ``Optimizer.optimize`` time means
:class:`~repro.optimizer.planner.PlanCache` hits reuse the closures and
kernels for free, and invalidation/backup reversion recompiles through
the shared compile cache (identical predicates hit).

Only the production executor reads the slots.  A plan built with
``OptimizerConfig.compile_expressions=False`` has ``plan.compiled``
false, and :meth:`~repro.executor.runtime.Executor.execute` routes it
to the row-at-a-time oracle, which interprets every expression through
:func:`~repro.expr.eval.evaluate`.
"""

from __future__ import annotations

from typing import Optional

from repro.expr.compile import CompiledExpr, cache_stats, compile_expr
from repro.optimizer.physical import (
    Extend,
    Filter,
    GroupBy,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    PhysicalNode,
    PhysicalPlan,
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
            (compile_expr(expr).batch, ascending) for expr, ascending in node.order
        ]
    for child in node.children():
        _attach(child)

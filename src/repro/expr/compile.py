"""Plan-time expression compilation: one lowered form per expression.

:func:`compile_expr` lowers an :class:`~repro.sql.ast.Expression` *once*
into a :class:`CompiledExpr`: the expression, its folded constant, the
compiled forms of its operands and — lowered by :mod:`repro.expr.vector`
on first use, by walking those operands — its numpy kernel.  The
production executor evaluates every compiled expression through that
kernel (:func:`~repro.expr.vector.select_rows` and
:func:`~repro.expr.vector.value_columns`); a batch the kernel declines
runs row by row through :func:`~repro.expr.eval.evaluate`, which is the
semantics.

Constant subexpressions are folded here with SQL three-valued logic:
the fold *evaluates* the subtree, so short-circuit AND/OR and Kleene
NULL propagation are preserved exactly.  A constant subtree whose
evaluation raises gets no kernel (``children`` is None), so the
interpreter raises the identical :class:`~repro.errors.ExpressionError`
at run time — per row, so never at plan time and never over an empty
batch.  So do aggregate and unknown function calls, unknown operators
and unknown node types.

Compiled expressions are shared through one bounded module-level
:class:`~repro.expr.cache.LoweringCache` keyed by the expression node
itself (expression dataclasses hash structurally;
:class:`~repro.sql.ast.RuntimeParameter` compares by identity, so plans
parameterized on different soft constraints never alias).  Identical
predicates across plans — the common case under
:class:`~repro.optimizer.planner.PlanCache` recompiles — therefore reuse
one kernel; :func:`cache_stats` exposes the hit/miss counters EXPLAIN
reports.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.errors import ExpressionError
from repro.expr.cache import LoweringCache
from repro.expr.eval import _ARITHMETIC, _COMPARATORS, _SCALAR_FUNCTIONS, evaluate
from repro.sql import ast


class CompiledExpr:
    """A lowered expression: its folded constant, operands and kernel.

    ``constant`` marks a folded subtree; ``value`` is only meaningful
    when ``constant`` is true.  ``children`` are the operands' compiled
    forms, which kernel lowering walks instead of looking them up again;
    None marks a node with no kernel, which only the interpreter
    evaluates.  ``kernel`` is None until
    :func:`repro.expr.vector.kernel_of` lowers it.
    """

    __slots__ = ("expression", "children", "constant", "value", "kernel")

    def __init__(
        self,
        expression: ast.Expression,
        children: Optional[Sequence["CompiledExpr"]] = (),
        constant: bool = False,
        value: Any = None,
    ) -> None:
        self.expression = expression
        self.children = children
        self.constant = constant
        self.value = value
        self.kernel: Any = None

    def __repr__(self) -> str:
        kind = f"const {self.value!r}" if self.constant else "kernel"
        return f"CompiledExpr({type(self.expression).__name__}, {kind})"


# ------------------------------------------------------------ compile cache

_CACHE = LoweringCache()


def compile_expr(expression: ast.Expression) -> CompiledExpr:
    """Compile through the shared cache (structural expression keying)."""
    return _CACHE.get_or_build(expression, _compile)


def cache_stats() -> Tuple[int, int]:
    """``(hits, misses)`` of the process-wide compile cache."""
    return _CACHE.stats()


def clear_cache() -> None:
    """Drop every cached expression and reset the counters (tests/benchmarks)."""
    _CACHE.clear()


# ------------------------------------------------------------------ lowering


def _compile(expression: ast.Expression) -> CompiledExpr:
    if _is_constant(expression):
        try:
            value = evaluate(expression, {})
        except ExpressionError:
            return CompiledExpr(expression, children=None)
        except Exception:  # noqa: BLE001 - e.g. arity TypeError: keep eval-time
            pass
        else:
            return CompiledExpr(expression, constant=True, value=value)
    operands = _operands(expression)
    if operands is None:
        return CompiledExpr(expression, children=None)
    return CompiledExpr(expression, [compile_expr(operand) for operand in operands])


def _is_constant(expression: ast.Expression) -> bool:
    """True when the subtree evaluates row-independently and repeatably.

    ``ColumnRef`` and ``RuntimeParameter`` (whose value tracks the live
    soft constraint) are never constant; neither are aggregate or unknown
    function calls, whose interpreter behaviour is an eval-time raise.
    """
    if type(expression) is ast.Literal:
        return True
    operands = _operands(expression)
    return bool(operands) and all(_is_constant(operand) for operand in operands)


def _operands(expression: ast.Expression) -> Optional[Sequence[ast.Expression]]:
    """The operands a node's kernel is built from; None for a node that
    has no kernel."""
    t = type(expression)
    if t is ast.ColumnRef or t is ast.RuntimeParameter:
        return ()
    if t is ast.UnaryOp or t is ast.IsNullExpr:
        return (expression.operand,)
    if t is ast.BinaryOp:
        op = expression.op
        if op in ("and", "or", "like") or op in _COMPARATORS or op in _ARITHMETIC:
            return (expression.left, expression.right)
        return None
    if t is ast.BetweenExpr:
        return (expression.operand, expression.low, expression.high)
    if t is ast.InExpr:
        return (expression.operand, *expression.items)
    if t is ast.FunctionCall:
        if expression.is_aggregate or expression.name not in _SCALAR_FUNCTIONS:
            return None
        return expression.args
    return None

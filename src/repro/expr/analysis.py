"""Static analysis of predicates.

Services used throughout the optimizer:

* splitting WHERE clauses into conjuncts and re-joining them;
* finding the columns / table bindings an expression mentions;
* recognizing *simple column predicates* (``col op constant``,
  ``col BETWEEN a AND b``, ``col IN (...)``) and converting them to
  :class:`~repro.expr.intervals.Interval` form;
* computing the admissible interval of a column under a conjunction —
  the core primitive behind union-all branch knockout and join-hole
  range trimming.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.expr.eval import evaluate
from repro.expr.intervals import Interval
from repro.errors import ExpressionError
from repro.sql import ast

_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_COMPARISON_OPS = frozenset(["=", "<>", "<", "<=", ">", ">="])


def split_conjuncts(expression: Optional[ast.Expression]) -> List[ast.Expression]:
    """Flatten nested ANDs into a list of conjuncts (empty for None)."""
    if expression is None:
        return []
    if isinstance(expression, ast.BinaryOp) and expression.op == "and":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def conjoin(conjuncts: Sequence[ast.Expression]) -> Optional[ast.Expression]:
    """AND a list of predicates back together (None for an empty list)."""
    result: Optional[ast.Expression] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else ast.BinaryOp("and", result, conjunct)
    return result


def columns_in(expression: ast.Expression) -> Set[ast.ColumnRef]:
    """Every column reference occurring in the expression."""
    found: Set[ast.ColumnRef] = set()
    _walk_leaves(expression, ast.ColumnRef, found)
    return found


def _walk_leaves(node: ast.Expression, kind: type, found: set) -> None:
    if isinstance(node, kind):
        found.add(node)
    elif isinstance(node, ast.UnaryOp):
        _walk_leaves(node.operand, kind, found)
    elif isinstance(node, ast.BinaryOp):
        _walk_leaves(node.left, kind, found)
        _walk_leaves(node.right, kind, found)
    elif isinstance(node, ast.BetweenExpr):
        _walk_leaves(node.operand, kind, found)
        _walk_leaves(node.low, kind, found)
        _walk_leaves(node.high, kind, found)
    elif isinstance(node, ast.InExpr):
        _walk_leaves(node.operand, kind, found)
        for item in node.items:
            _walk_leaves(item, kind, found)
    elif isinstance(node, ast.IsNullExpr):
        _walk_leaves(node.operand, kind, found)
    elif isinstance(node, ast.FunctionCall):
        for arg in node.args:
            _walk_leaves(arg, kind, found)


def slots_in(expressions: Sequence[ast.Expression]) -> Set[int]:
    """The binding slots the expressions' values follow (empty when none
    depends on the statement binding)."""
    found: Set[ast.RuntimeParameter] = set()
    for expression in expressions:
        _walk_leaves(expression, ast.RuntimeParameter, found)
    slots: Set[int] = set()
    for parameter in found:
        slots |= parameter.slots()
    return slots


def tables_in(expression: ast.Expression) -> Set[str]:
    """The table qualifiers mentioned (unqualified refs contribute nothing)."""
    return {
        ref.table for ref in columns_in(expression) if ref.table is not None
    }


def is_constant(expression: ast.Expression) -> bool:
    """True when the expression mentions no columns (and no aggregates)."""
    if _contains_aggregate(expression):
        return False
    return not columns_in(expression)


def _contains_aggregate(node: ast.Expression) -> bool:
    if isinstance(node, ast.FunctionCall):
        if node.is_aggregate:
            return True
        return any(_contains_aggregate(arg) for arg in node.args)
    if isinstance(node, ast.UnaryOp):
        return _contains_aggregate(node.operand)
    if isinstance(node, ast.BinaryOp):
        return _contains_aggregate(node.left) or _contains_aggregate(node.right)
    if isinstance(node, ast.BetweenExpr):
        return any(
            _contains_aggregate(part)
            for part in (node.operand, node.low, node.high)
        )
    if isinstance(node, ast.InExpr):
        return _contains_aggregate(node.operand) or any(
            _contains_aggregate(item) for item in node.items
        )
    if isinstance(node, ast.IsNullExpr):
        return _contains_aggregate(node.operand)
    return False


def contains_aggregate(expression: ast.Expression) -> bool:
    """Public wrapper: does the expression contain an aggregate call?"""
    return _contains_aggregate(expression)


def constant_value(expression: ast.Expression) -> Any:
    """Evaluate a constant expression (raises if it references columns)."""
    if not is_constant(expression):
        raise ExpressionError(f"expression is not constant: {expression!r}")
    return evaluate(expression, {})


class ColumnComparison:
    """A recognized ``column op constant`` predicate."""

    __slots__ = ("column", "op", "value")

    def __init__(self, column: ast.ColumnRef, op: str, value: Any) -> None:
        self.column = column
        self.op = op
        self.value = value

    def __repr__(self) -> str:
        return f"ColumnComparison({self.column.qualified} {self.op} {self.value!r})"


def match_column_comparison(
    expression: ast.Expression,
) -> Optional[ColumnComparison]:
    """Recognize ``col op const`` / ``const op col`` (op flipped for you)."""
    if not isinstance(expression, ast.BinaryOp):
        return None
    if expression.op not in _COMPARISON_OPS:
        return None
    left, right = expression.left, expression.right
    if isinstance(left, ast.ColumnRef) and is_constant(right):
        return ColumnComparison(left, expression.op, constant_value(right))
    if isinstance(right, ast.ColumnRef) and is_constant(left):
        return ColumnComparison(
            right, _FLIP[expression.op], constant_value(left)
        )
    return None


def match_expression_comparison(
    expression: ast.Expression,
) -> Optional[Tuple[ast.Expression, str, Any]]:
    """Recognize ``<expr> op const`` for an arbitrary non-constant LHS.

    The generalization of :func:`match_column_comparison` used for
    virtual-column statistics: the left side may be any scalar expression
    (e.g. ``end_date - start_date``).
    """
    if not isinstance(expression, ast.BinaryOp):
        return None
    if expression.op not in _COMPARISON_OPS:
        return None
    left, right = expression.left, expression.right
    if not is_constant(left) and is_constant(right):
        return left, expression.op, constant_value(right)
    if not is_constant(right) and is_constant(left):
        return right, _FLIP[expression.op], constant_value(left)
    return None


def strip_qualifiers(expression: ast.Expression) -> ast.Expression:
    """The expression with every column reference unqualified.

    Used to compare a query conjunct (bound to table bindings) against a
    catalog-stored expression written over bare column names.
    """
    mapping = {
        reference.qualified: ast.ColumnRef(reference.column)
        for reference in columns_in(expression)
        if reference.table is not None
    }
    if not mapping:
        return expression
    return substitute_columns(expression, mapping)


def match_column_between(
    expression: ast.Expression,
) -> Optional[Tuple[ast.ColumnRef, Any, Any]]:
    """Recognize ``col BETWEEN const AND const`` (non-negated)."""
    if not isinstance(expression, ast.BetweenExpr) or expression.negated:
        return None
    if not isinstance(expression.operand, ast.ColumnRef):
        return None
    if not (is_constant(expression.low) and is_constant(expression.high)):
        return None
    return (
        expression.operand,
        constant_value(expression.low),
        constant_value(expression.high),
    )


def match_column_in(
    expression: ast.Expression,
) -> Optional[Tuple[ast.ColumnRef, List[Any]]]:
    """Recognize ``col IN (const, ...)`` (non-negated)."""
    if not isinstance(expression, ast.InExpr) or expression.negated:
        return None
    if not isinstance(expression.operand, ast.ColumnRef):
        return None
    if not all(is_constant(item) for item in expression.items):
        return None
    return expression.operand, [constant_value(item) for item in expression.items]


def match_equijoin(
    expression: ast.Expression,
) -> Optional[Tuple[ast.ColumnRef, ast.ColumnRef]]:
    """Recognize ``t1.a = t2.b`` between two different table bindings."""
    if not isinstance(expression, ast.BinaryOp) or expression.op != "=":
        return None
    left, right = expression.left, expression.right
    if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)):
        return None
    if left.table is None or right.table is None or left.table == right.table:
        return None
    return left, right


def interval_of_predicate(
    expression: ast.Expression, column: ast.ColumnRef
) -> Optional[Interval]:
    """The interval a single predicate admits for ``column``.

    Returns None when the predicate does not constrain the column to an
    interval (e.g. it mentions other columns, is a disjunction, or is an
    inequality ``<>``).
    """
    comparison = match_column_comparison(expression)
    if comparison is not None and _same_column(comparison.column, column):
        op, value = comparison.op, comparison.value
        if op == "=":
            return Interval.point(value)
        if op == "<":
            return Interval.at_most(value, inclusive=False)
        if op == "<=":
            return Interval.at_most(value)
        if op == ">":
            return Interval.at_least(value, inclusive=False)
        if op == ">=":
            return Interval.at_least(value)
        return None  # <> constrains almost nothing
    between = match_column_between(expression)
    if between is not None and _same_column(between[0], column):
        return Interval(between[1], between[2])
    in_list = match_column_in(expression)
    if in_list is not None and _same_column(in_list[0], column):
        values = [v for v in in_list[1] if v is not None]
        if not values:
            return Interval.empty()
        return Interval(min(values), max(values))
    return None


def column_interval(
    conjuncts: Sequence[ast.Expression], column: ast.ColumnRef
) -> Interval:
    """The interval admitted for ``column`` under a conjunction.

    Conjuncts not recognized as constraining the column are ignored, so the
    result is an *upper bound* of the true admissible set — exactly what a
    sound branch-knockout / range-trimming rewrite needs (never drops rows
    that could qualify).
    """
    result = Interval.unbounded()
    for top in conjuncts:
        # Flatten nested ANDs so composite conjuncts (e.g. a rewritten
        # half-open range) still contribute their parts.
        for conjunct in split_conjuncts(top):
            interval = interval_of_predicate(conjunct, column)
            if interval is not None:
                result = result.intersect(interval)
    return result


def constraining(
    conjuncts: Sequence[ast.Expression], column: ast.ColumnRef
) -> List[ast.Expression]:
    """The atoms of ``conjuncts`` :func:`column_interval` reads for
    ``column``: re-reading just these gives the same interval."""
    return [
        conjunct
        for top in conjuncts
        for conjunct in split_conjuncts(top)
        if interval_of_predicate(conjunct, column) is not None
    ]


def edge_operands(
    expression: ast.Expression, column: ast.ColumnRef
) -> Optional[Tuple[Optional[ast.Expression], Optional[ast.Expression]]]:
    """The operands that set ``column``'s lower and upper edge in the
    interval :func:`interval_of_predicate` reads from one predicate
    (None for an edge it leaves open); an IN list's edges are literals."""
    if isinstance(expression, ast.BinaryOp) and expression.op in _COMPARISON_OPS:
        left, right, op = expression.left, expression.right, expression.op
        if isinstance(right, ast.ColumnRef) and is_constant(left):
            left, right, op = right, left, _FLIP[op]
        if (
            op == "<>"
            or not isinstance(left, ast.ColumnRef)
            or not _same_column(left, column)
            or not is_constant(right)
        ):
            return None
        return (
            right if op in ("=", ">", ">=") else None,
            right if op in ("=", "<", "<=") else None,
        )
    between = match_column_between(expression)
    if between is not None and _same_column(between[0], column):
        return expression.low, expression.high
    interval = interval_of_predicate(expression, column)
    if interval is None:
        return None
    return ast.Literal(interval.low), ast.Literal(interval.high)


def _same_column(left: ast.ColumnRef, right: ast.ColumnRef) -> bool:
    """Column identity, tolerant of missing qualifiers on either side."""
    if left.column != right.column:
        return False
    if left.table is None or right.table is None:
        return True
    return left.table == right.table


def substitute_columns(
    expression: ast.Expression, mapping: Dict[str, ast.Expression]
) -> ast.Expression:
    """Replace column references by expressions.

    ``mapping`` keys are bare column names (and/or ``table.column`` forms);
    qualified references try their qualified key first.  Used to rebase a
    constraint's expression onto a query's alias and to translate AST
    definitions into query scope.
    """

    def replace(leaf: ast.Expression) -> ast.Expression:
        if not isinstance(leaf, ast.ColumnRef):
            return leaf
        if leaf.table is not None:
            qualified = f"{leaf.table}.{leaf.column}"
            if qualified in mapping:
                return mapping[qualified]
        return mapping.get(leaf.column, leaf)

    return _map_leaves(expression, replace)


def bind_parameters(expression: ast.Expression) -> ast.Expression:
    """The expression with each binding-dependent parameter replaced by
    the literal it currently reads: what the statement says before
    lifting, so feedback keys the same work the same way either way."""

    def replace(leaf: ast.Expression) -> ast.Expression:
        if isinstance(leaf, ast.RuntimeParameter) and leaf.per_statement:
            return ast.Literal(
                leaf.current_value(), getattr(leaf.source, "is_date", False)
            )
        return leaf

    return _map_leaves(expression, replace)


def _map_leaves(expression: ast.Expression, replace) -> ast.Expression:
    """A copy of ``expression`` with ``replace`` applied to every leaf."""
    if isinstance(
        expression, (ast.ColumnRef, ast.Literal, ast.RuntimeParameter)
    ):
        return replace(expression)
    if isinstance(expression, ast.UnaryOp):
        return ast.UnaryOp(
            expression.op, _map_leaves(expression.operand, replace)
        )
    if isinstance(expression, ast.BinaryOp):
        return ast.BinaryOp(
            expression.op,
            _map_leaves(expression.left, replace),
            _map_leaves(expression.right, replace),
        )
    if isinstance(expression, ast.BetweenExpr):
        return ast.BetweenExpr(
            _map_leaves(expression.operand, replace),
            _map_leaves(expression.low, replace),
            _map_leaves(expression.high, replace),
            negated=expression.negated,
        )
    if isinstance(expression, ast.InExpr):
        return ast.InExpr(
            _map_leaves(expression.operand, replace),
            tuple(_map_leaves(item, replace) for item in expression.items),
            negated=expression.negated,
        )
    if isinstance(expression, ast.IsNullExpr):
        return ast.IsNullExpr(
            _map_leaves(expression.operand, replace),
            negated=expression.negated,
        )
    if isinstance(expression, ast.FunctionCall):
        return ast.FunctionCall(
            expression.name,
            tuple(_map_leaves(arg, replace) for arg in expression.args),
            distinct=expression.distinct,
            star=expression.star,
        )
    raise ExpressionError(f"cannot substitute in {type(expression).__name__}")

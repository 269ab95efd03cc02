"""Literal lifting: one plan per statement *shape*.

:func:`lift` replaces each literal operand of a comparison or ``BETWEEN``
in WHERE, ON and HAVING by a numbered :class:`~repro.sql.ast.Slot` — a
:class:`~repro.sql.ast.RuntimeParameter` whose source is the statement
binding, the same Section 4.2 mechanism min/max abbreviation reads a
soft constraint's current bounds through.  Two statements that differ
only in those literals lift to the same shape, and a plan for the shape
serves both with each one's values bound at execution.

Lifted: an int, float, string or date literal (or a negated number)
compared with an operand that varies per row.  Kept in the shape:
NULL, booleans, LIKE patterns, IN lists, LIMIT, select-list literals,
literals inside arithmetic and comparisons between two constants.
"""

from __future__ import annotations

from typing import Any, List, Tuple, Union

from repro.sql import ast
from repro.sql.printer import sql_of

_COMPARISONS = frozenset(["=", "<>", "<", "<=", ">", ">="])

Query = Union[ast.SelectStatement, ast.UnionAll]
#: A shape: the lifted text and each slot's type ("date" for dates).
ShapeKey = Tuple[str, Tuple[Any, ...]]


def lift(statement: Any) -> Tuple[Any, Tuple[Any, ...], ShapeKey]:
    """``(lifted statement, slot values, shape key)``.

    The statement itself is left as it was; the lifted copy shares every
    subtree lifting did not touch.  A statement that is not a query lifts
    to itself with no slots.
    """
    lifter = _Lifter()
    if isinstance(statement, ast.UnionAll):
        lifted: Any = ast.UnionAll(
            [lifter.select(branch) for branch in statement.branches],
            statement.order_by,
            statement.limit,
        )
    elif isinstance(statement, ast.SelectStatement):
        lifted = lifter.select(statement)
    else:
        return statement, (), (repr(statement), ())
    return lifted, tuple(lifter.values), (sql_of(lifted), tuple(lifter.types))


class _Lifter:
    def __init__(self) -> None:
        self.values: List[Any] = []
        self.types: List[Any] = []

    def select(self, node: ast.SelectStatement) -> ast.SelectStatement:
        return ast.SelectStatement(
            node.select_items,
            [self.from_item(item) for item in node.from_clause],
            self.predicate(node.where),
            node.group_by,
            self.predicate(node.having),
            node.order_by,
            node.limit,
            node.distinct,
        )

    def from_item(self, item: Any) -> Any:
        if not isinstance(item, ast.Join):
            return item
        return ast.Join(
            item.kind,
            self.from_item(item.left),
            self.from_item(item.right),
            self.predicate(item.condition),
        )

    def predicate(self, node: Any) -> Any:
        """Lift through the boolean structure down to each comparison."""
        if isinstance(node, ast.BinaryOp):
            if node.op in ("and", "or"):
                return ast.BinaryOp(
                    node.op, self.predicate(node.left), self.predicate(node.right)
                )
            if node.op in _COMPARISONS:
                return ast.BinaryOp(
                    node.op,
                    self.operand(node.left, node.right),
                    self.operand(node.right, node.left),
                )
        elif isinstance(node, ast.UnaryOp) and node.op == "not":
            return ast.UnaryOp("not", self.predicate(node.operand))
        elif isinstance(node, ast.BetweenExpr):
            return ast.BetweenExpr(
                node.operand,
                self.operand(node.low, node.operand),
                self.operand(node.high, node.operand),
                node.negated,
            )
        return node

    def operand(self, node: ast.Expression, other: ast.Expression) -> Any:
        """``node`` as a slot when it is a literal ``other`` is compared
        with row by row."""
        literal = _liftable(node)
        if literal is None or not _varies(other):
            return node
        self.types.append("date" if literal.is_date else type(literal.value))
        self.values.append(literal.value)
        slot = ast.Slot(len(self.values) - 1, literal.is_date)
        return ast.RuntimeParameter(slot, "value")


def _liftable(node: ast.Expression) -> Any:
    """The literal ``node`` stands for, if it is one lifting takes."""
    if (
        isinstance(node, ast.UnaryOp)
        and node.op == "-"
        and type(node.operand) is ast.Literal
        and type(node.operand.value) in (int, float)
    ):
        return ast.Literal(-node.operand.value)
    if type(node) is ast.Literal and type(node.value) in (int, float, str):
        return node
    return None


def _varies(node: ast.Expression) -> bool:
    """Whether ``node`` mentions a column or an aggregate."""
    if isinstance(node, ast.ColumnRef):
        return True
    if isinstance(node, ast.FunctionCall):
        return node.is_aggregate or any(_varies(arg) for arg in node.args)
    if isinstance(node, ast.UnaryOp):
        return _varies(node.operand)
    if isinstance(node, ast.BinaryOp):
        return _varies(node.left) or _varies(node.right)
    return False

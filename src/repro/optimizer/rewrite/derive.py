"""Rendering implied intervals back into query predicates.

Shared by predicate introduction, AST routing, and twinning.  What an
interval *is* comes from the soft constraint itself
(:meth:`~repro.softcon.base.SoftConstraint.implied_interval`); this
module holds the query-side halves: the intervals a block already
implies for a binding's columns, an interval rendered as conjuncts, and
:class:`LiveInterval`, the interval a rule derives from the statement
binding, which a plan must recompute rather than copy.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.expr import analysis
from repro.expr.intervals import Interval
from repro.sql import ast


class LiveInterval:
    """An interval derived from binding slots, read edge by edge at run time.

    ``derive()`` recomputes it from the conjuncts it was derived from
    under whatever binding is current, once per execution (the binding's
    memo keeps it).  A predicate rendered with one reads
    ``PARAM(name.low)`` / ``PARAM(name.high)`` instead of literals, so a
    cached plan scans the range the *bound* values imply.  Its edges are
    open or closed alike for every binding: which edges exist follows
    from which columns the query bounds, not from the values.
    """

    per_statement = True

    def __init__(
        self,
        name: str,
        derive: Callable[[], Interval],
        sources: Sequence[ast.Expression],
    ) -> None:
        self.name = name
        self.derive = derive
        self._slots = frozenset(analysis.slots_in(sources))

    @classmethod
    def over(
        cls,
        name: str,
        derive: Callable[[], Interval],
        sources: Sequence[ast.Expression],
    ) -> Optional["LiveInterval"]:
        """One for an interval derived from ``sources``, or None when no
        source follows the binding (the interval is then a constant)."""
        live = cls(name, derive, sources)
        return live if live._slots else None

    def slots(self):
        return self._slots

    def interval(self) -> Interval:
        binding = ast.current_binding()
        if binding is None:
            return self.derive()
        interval = binding.memo.get(self)
        if interval is None:
            interval = binding.memo[self] = self.derive()
        return interval

    @property
    def low(self):
        return self.interval().low

    @property
    def high(self):
        return self.interval().high


def interval_to_predicate(
    column: str,
    binding: Optional[str],
    interval: Interval,
    live: Optional[LiveInterval] = None,
) -> Optional[ast.Expression]:
    """Render an interval as a predicate on a (qualified) column.

    With ``live``, each edge is a runtime parameter reading that edge of
    ``live`` (whose current value is ``interval``) instead of a literal.
    """
    if interval.is_unbounded:
        return None
    reference = ast.ColumnRef(column, binding)
    if live is None:
        if interval.is_empty:
            return ast.Literal(False)
        low: ast.Expression = ast.Literal(interval.low)
        high: ast.Expression = ast.Literal(interval.high)
    else:
        low = ast.RuntimeParameter(live, "low")
        high = ast.RuntimeParameter(live, "high")
    if interval.low is not None and interval.high is not None:
        if interval.low_inclusive and interval.high_inclusive:
            return ast.BetweenExpr(reference, low, high)
        conjuncts = []
        low_op = ">=" if interval.low_inclusive else ">"
        high_op = "<=" if interval.high_inclusive else "<"
        conjuncts.append(ast.BinaryOp(low_op, reference, low))
        conjuncts.append(ast.BinaryOp(high_op, reference, high))
        return analysis.conjoin(conjuncts)
    if interval.low is not None:
        op = ">=" if interval.low_inclusive else ">"
        return ast.BinaryOp(op, reference, low)
    op = "<=" if interval.high_inclusive else "<"
    return ast.BinaryOp(op, reference, high)


def known_intervals_for_binding(
    predicates: List[ast.Expression], binding: str, columns: List[str]
) -> Dict[str, Interval]:
    """Per-column intervals the query already implies for one binding."""
    known: Dict[str, Interval] = {}
    for column in columns:
        interval = analysis.column_interval(
            predicates, ast.ColumnRef(column, binding)
        )
        if not interval.is_unbounded:
            known[column] = interval
    return known


def source_conjuncts(
    predicates: Sequence[ast.Expression], binding: str, columns: Sequence[str]
) -> List[ast.Expression]:
    """The atoms of ``predicates`` that bound any of ``columns``."""
    return [
        atom
        for column in columns
        for atom in analysis.constraining(
            predicates, ast.ColumnRef(column, binding)
        )
    ]

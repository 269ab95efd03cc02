"""Canonical keys for feedback observations.

An observation recorded while executing one plan must be found again when
the optimizer re-estimates the *same logical work* — possibly from a
different physical plan, with the conjuncts in a different order, or
under a different binding alias.  Signatures therefore:

* strip binding qualifiers (``e.age > 30`` and ``emp.age > 30`` key the
  same observation, with the table name carried separately);
* split conjunctions to atoms and sort their SQL texts, so conjunct
  order and ``AND`` nesting don't matter;
* round-trip through :func:`repro.sql.printer.sql_of`, the same printer
  both the estimator's conjunct lists and the physical scan predicates
  (built via :func:`repro.expr.analysis.conjoin`) flow through;
* print a parameter that follows the statement binding (a lifted
  literal, a range derived from one) as the value it reads, so a cached
  plan's execution keys the same observation as the statement written
  out would.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.expr import analysis
from repro.sql import ast
from repro.sql.printer import sql_of

#: Signature of an unfiltered scan (no predicate at all).
FULL_SCAN = "<full-scan>"


def conjunct_signature(conjuncts: Sequence[ast.Expression]) -> str:
    """Order-insensitive, qualifier-free signature of a conjunct list."""
    parts = set()
    for conjunct in conjuncts:
        for atom in analysis.split_conjuncts(conjunct):
            parts.add(
                sql_of(analysis.bind_parameters(analysis.strip_qualifiers(atom)))
            )
    if not parts:
        return FULL_SCAN
    return " AND ".join(sorted(parts))


def predicate_signature(predicate: Optional[ast.Expression]) -> str:
    """Signature of a scan node's (possibly None) pushed-down predicate."""
    if predicate is None:
        return FULL_SCAN
    return conjunct_signature([predicate])


def join_edge_signature(
    left: ast.ColumnRef,
    right: ast.ColumnRef,
    binding_tables: Dict[str, str],
) -> Optional[str]:
    """``table.col=table.col`` (sides sorted) for one equi-join edge.

    Bindings resolve through ``binding_tables`` so the same edge keys the
    same observation across queries with different aliases; unresolvable
    bindings yield None (no observation is recorded or consulted).
    """
    left_table = binding_tables.get((left.table or "").lower())
    right_table = binding_tables.get((right.table or "").lower())
    if not left_table or not right_table:
        return None
    sides = sorted(
        (
            f"{left_table.lower()}.{left.column.lower()}",
            f"{right_table.lower()}.{right.column.lower()}",
        )
    )
    return "=".join(sides)


def theta_signature(
    condition: ast.Expression, binding_tables: Dict[str, str]
) -> str:
    """Signature for a non-equi join condition: the stripped condition
    text plus the sorted participating table names."""
    tables = sorted(
        binding_tables.get(binding, binding).lower()
        for binding in analysis.tables_in(condition)
    )
    text = sql_of(
        analysis.bind_parameters(analysis.strip_qualifiers(condition))
    )
    return f"theta[{','.join(tables)}]:{text}"


def group_signature(
    keys: Sequence[ast.ColumnRef], binding_tables: Dict[str, str]
) -> str:
    """Sorted ``table.col`` list of a GROUP BY's key columns."""
    parts = sorted(
        f"{binding_tables.get((key.table or '').lower(), key.table or '?')}"
        f".{key.column.lower()}".lower()
        for key in keys
    )
    return "group:" + ",".join(parts)


def index_range_signature(
    low: Optional[Tuple[Any, ...]],
    high: Optional[Tuple[Any, ...]],
    low_inclusive: bool,
    high_inclusive: bool,
) -> str:
    """Signature of an index scan's key range.

    Keys the *matching rows* observation (how many rows the range really
    fetched) so access-path selection can correct a stale histogram's
    ``matching`` estimate for the exact same range on reoptimization.
    """
    return "{}{}..{}{}".format(
        "[" if low_inclusive else "(",
        _render_key(low),
        _render_key(high),
        "]" if high_inclusive else ")",
    )


def _render_key(key: Optional[Tuple[Any, ...]]) -> str:
    if key is None:
        return "*"
    return ",".join(_render_part(part) for part in key)


def _render_part(part: Any) -> str:
    # A soft constraint's runtime parameter prints its identity, not its
    # current value: the *range expression* is what's stable across
    # executions.  One that follows the binding prints the bound value.
    if isinstance(part, ast.RuntimeParameter) and part.per_statement:
        return repr(part.current_value())
    if isinstance(part, ast.Expression):
        return sql_of(part)
    return repr(part)

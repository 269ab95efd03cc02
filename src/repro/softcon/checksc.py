"""Check-style soft constraints: an arbitrary row predicate over one table.

This is the workhorse SC class: any statement expressible as a CHECK
constraint can be held as a soft constraint instead (the paper's
``late_shipments`` example is ``ship_date <= order_date + 21`` held at 99%
confidence).  The expression is kept both as a parsed AST (for the rewrite
engine and the twinning mechanism) and as a compiled predicate (for
verification and synchronous maintenance).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union, TYPE_CHECKING

from repro.expr import analysis
from repro.expr.difference import (
    DifferenceBound,
    derive_interval_from_bounds,
    difference_bounds,
)
from repro.expr.eval import compile_predicate
from repro.expr.intervals import Interval
from repro.sql import ast
from repro.sql.parser import parse_expression
from repro.sql.printer import sql_of
from repro.softcon.base import SoftConstraint

if TYPE_CHECKING:  # pragma: no cover
    from repro.discovery.workload_model import Workload
    from repro.engine.database import Database


class CheckSoftConstraint(SoftConstraint):
    """A soft row-level CHECK statement over one table.

    Parameters
    ----------
    name:
        Registry-unique name.
    table_name:
        The constrained table.
    condition:
        The statement, as SQL text or a parsed expression.
    confidence:
        Fraction of rows satisfying the statement (1.0 = absolute).
    """

    kind = "check"
    maintenance_cost = 1.0

    def __init__(
        self,
        name: str,
        table_name: str,
        condition: Union[str, ast.Expression],
        confidence: float = 1.0,
    ) -> None:
        super().__init__(name, confidence)
        self.table_name = table_name.lower()
        if isinstance(condition, str):
            self.expression = parse_expression(condition)
        else:
            self.expression = condition
        self._predicate = compile_predicate(self.expression)
        self._bounds = difference_bounds(self.expression)

    def table_names(self) -> List[str]:
        return [self.table_name]

    def statement_sql(self) -> str:
        return f"CHECK ({sql_of(self.expression)}) ON {self.table_name}"

    def row_satisfies(self, row: Dict[str, Any]) -> Optional[bool]:
        verdict = self._predicate(row)
        # CHECK semantics: UNKNOWN satisfies.
        return True if verdict is None else verdict

    def record_fields(self) -> Dict[str, Any]:
        return {"table": self.table_name, "condition": sql_of(self.expression)}

    @classmethod
    def from_record(cls, state: Dict[str, Any]) -> "CheckSoftConstraint":
        return cls(
            state["name"], state["table"], state["condition"],
            state["confidence"],
        )

    def workload_match(
        self, workload: "Workload", database: Optional["Database"]
    ) -> Tuple[float, float]:
        columns = {ref.column for ref in analysis.columns_in(self.expression)}
        matched = sum(
            workload.predicate_frequency(self.table_name, column)
            for column in columns
        )
        return matched, 0.5

    # -- rewrite support -----------------------------------------------------

    def negated_expression(self) -> ast.Expression:
        """``NOT (condition)`` — the defining predicate of the exception
        table when this ASC is represented as an AST (Section 4.4)."""
        return ast.UnaryOp("not", self.expression)

    def row_conjuncts(self) -> List[ast.Expression]:
        return analysis.split_conjuncts(self.expression)

    def row_condition(self) -> ast.Expression:
        return self.expression

    def difference_bounds(self) -> List[DifferenceBound]:
        return self._bounds

    def interval_columns(self) -> List[str]:
        bounds = self.difference_bounds()
        return sorted({b.x for b in bounds} | {b.y for b in bounds})

    def implied_interval(
        self, target_column: str, known: Dict[str, Interval]
    ) -> Interval:
        return derive_interval_from_bounds(
            self.difference_bounds(), target_column, known
        )

"""Min/max soft constraints (the Sybase-style ASC of Section 2).

The paper notes Sybase maintains max and min information for a table
attribute as synchronously-maintained "constraint" information, which the
optimizer uses to abbreviate range conditions.  We hold the same facts as
a soft constraint: ``column BETWEEN low AND high`` over one table.

Synchronous maintenance of a min/max SC is *self-repairing* on insert (the
bound simply widens), which makes it the cheapest ASC class — the contrast
with expensive classes (join holes) that E8 measures.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.expr.intervals import Interval
from repro.sql import ast
from repro.softcon.base import SoftConstraint

if TYPE_CHECKING:  # pragma: no cover
    from repro.discovery.workload_model import Workload
    from repro.engine.database import Database


class MinMaxSC(SoftConstraint):
    """``low <= column <= high`` over one table."""

    kind = "minmax"
    maintenance_cost = 1.0

    def __init__(
        self,
        name: str,
        table_name: str,
        column_name: str,
        low: Any,
        high: Any,
        confidence: float = 1.0,
    ) -> None:
        super().__init__(name, confidence)
        if low is not None and high is not None and low > high:
            raise ValueError(f"min/max bounds cross: {low!r} > {high!r}")
        self.table_name = table_name.lower()
        self.column_name = column_name.lower()
        self.low = low
        self.high = high

    def table_names(self) -> List[str]:
        return [self.table_name]

    def statement_sql(self) -> str:
        return (
            f"CHECK ({self.column_name} BETWEEN {self.low!r} AND "
            f"{self.high!r}) ON {self.table_name}"
        )

    @property
    def interval(self) -> Interval:
        return Interval(self.low, self.high)

    def row_satisfies(self, row: Dict[str, Any]) -> Optional[bool]:
        value = row.get(self.column_name)
        if value is None:
            return True
        return self.interval.contains(value)

    def record_fields(self) -> Dict[str, Any]:
        return {
            "table": self.table_name, "column": self.column_name,
            "low": self.low, "high": self.high,
        }

    @classmethod
    def from_record(cls, state: Dict[str, Any]) -> "MinMaxSC":
        return cls(
            state["name"], state["table"], state["column"], state["low"],
            state["high"], state["confidence"],
        )

    def workload_match(
        self, workload: "Workload", database: Optional["Database"]
    ) -> Tuple[float, float]:
        return workload.range_frequency(self.table_name, self.column_name), 0.4

    def column_bounds(self) -> Optional[Tuple[str, Interval]]:
        return self.column_name, self.interval

    def row_conjuncts(self) -> List[ast.Expression]:
        return [
            ast.BetweenExpr(
                ast.ColumnRef(self.column_name),
                ast.Literal(self.low),
                ast.Literal(self.high),
            )
        ]

    # -- self repair -----------------------------------------------------------

    def repair(self, violating: Dict[str, Any]) -> bool:
        self.widen_to(violating.get(self.column_name))
        return True

    def widen_to(self, value: Any) -> bool:
        """Widen the bounds to admit ``value``; True when anything changed.

        This is the synchronous repair for min/max: no re-scan needed, the
        constraint stays absolute.  (Deletes can leave the bounds loose;
        an asynchronous re-verify tightens them, like Sybase's upkeep.)
        """
        if value is None:
            return False
        changed = False
        if self.low is None or value < self.low:
            self.low = value
            changed = True
        if self.high is None or value > self.high:
            self.high = value
            changed = True
        return changed

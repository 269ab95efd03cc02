"""Linear-correlation soft constraints: ``A BETWEEN k*B + b - eps AND
k*B + b + eps``.

This is the SC class behind the paper's predicate-introduction example
(Section 2, citing [10]): two numeric attributes of one table are related
by a linear formula ``A = k*B + b`` within deviation ``eps``.  Given a
query predicate ``B = x``, the rewriter may introduce

    ``A BETWEEN k*x + b - eps AND k*x + b + eps``

which can open an index-on-A access path.  The rewrite is only legal when
the constraint is absolute (every row within ``eps``); at lower confidence
the same interval still improves cardinality estimates (twinning).

The model itself — :class:`LinearBand` — is shared with the inter-table
kind in :mod:`repro.softcon.joinlinear`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.expr.intervals import Interval
from repro.sql import ast
from repro.softcon.base import SoftConstraint

if TYPE_CHECKING:  # pragma: no cover
    from repro.discovery.workload_model import Workload
    from repro.engine.database import Database


class LinearBand:
    """``a ~= slope * b + intercept`` within ``epsilon``.

    Both linear kinds are bands: within one table and along a join path.
    ``epsilon >= 0`` is the max absolute deviation covered by the
    constraint's confidence.
    """

    def __init__(self, slope: float, intercept: float, epsilon: float) -> None:
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        self.slope = float(slope)
        self.intercept = float(intercept)
        self.epsilon = float(epsilon)

    def forward_interval(self, b_interval: Interval) -> Interval:
        """The interval of ``a`` admitted when ``b`` lies in ``b_interval``.

        A half-open ``b`` range bounds ``a`` on one side only, and which
        side depends on the slope's sign; staying unbounded is always
        sound, and half-open introduced ranges rarely help an index.
        """
        if b_interval.is_empty:
            return Interval.empty()
        if b_interval.low is None or b_interval.high is None:
            return Interval.unbounded()
        corners = [
            self.slope * float(b_interval.low) + self.intercept,
            self.slope * float(b_interval.high) + self.intercept,
        ]
        return Interval(min(corners) - self.epsilon, max(corners) + self.epsilon)

    def inverse_interval(self, a_interval: Interval) -> Interval:
        """The band of ``b`` when ``a`` lies in ``a_interval`` (slope != 0)."""
        if self.slope == 0.0:
            return Interval.unbounded()
        if a_interval.is_empty:
            return Interval.empty()
        if a_interval.low is None or a_interval.high is None:
            return Interval.unbounded()
        corners = [
            (float(a_interval.low) - self.intercept) / self.slope,
            (float(a_interval.high) - self.intercept) / self.slope,
        ]
        spread = self.epsilon / abs(self.slope)
        return Interval(min(corners) - spread, max(corners) + spread)

    def residual(self, a_value: Any, b_value: Any) -> Optional[float]:
        """Signed deviation of an (a, b) pair from the model (None on NULLs)."""
        if a_value is None or b_value is None:
            return None
        return float(a_value) - (self.slope * float(b_value) + self.intercept)

    def pair_satisfies(self, a_value: Any, b_value: Any) -> bool:
        """Inside the band; NULLs are UNKNOWN, which satisfies."""
        residual = self.residual(a_value, b_value)
        return residual is None or abs(residual) <= self.epsilon

    def widen(self, a_value: Any, b_value: Any) -> bool:
        """Synchronous repair: widen epsilon to admit a violating pair."""
        residual = self.residual(a_value, b_value)
        if residual is None:
            return False
        self.epsilon = max(self.epsilon, abs(residual))
        return True


class LinearCorrelationSC(LinearBand, SoftConstraint):
    """``a ~= slope * b + intercept`` within ``epsilon``, on one table.

    Parameters
    ----------
    column_a:
        The predicted column (the one a predicate can be *introduced* on).
    column_b:
        The predictor column (the one the query already constrains).
    slope, intercept, epsilon:
        The linear model (see :class:`LinearBand`).
    """

    kind = "linear"
    maintenance_cost = 1.0

    def __init__(
        self,
        name: str,
        table_name: str,
        column_a: str,
        column_b: str,
        slope: float,
        intercept: float,
        epsilon: float,
        confidence: float = 1.0,
    ) -> None:
        SoftConstraint.__init__(self, name, confidence)
        LinearBand.__init__(self, slope, intercept, epsilon)
        self.table_name = table_name.lower()
        self.column_a = column_a.lower()
        self.column_b = column_b.lower()

    def table_names(self) -> List[str]:
        return [self.table_name]

    def statement_sql(self) -> str:
        return (
            f"CHECK ({self.column_a} BETWEEN {self.slope:g} * {self.column_b} "
            f"+ {self.intercept:g} - {self.epsilon:g} AND {self.slope:g} * "
            f"{self.column_b} + {self.intercept:g} + {self.epsilon:g}) "
            f"ON {self.table_name}"
        )

    def row_satisfies(self, row: Dict[str, Any]) -> Optional[bool]:
        return self.pair_satisfies(row.get(self.column_a), row.get(self.column_b))

    def record_fields(self) -> Dict[str, Any]:
        return {
            "table": self.table_name, "column_a": self.column_a,
            "column_b": self.column_b, "slope": self.slope,
            "intercept": self.intercept, "epsilon": self.epsilon,
        }

    @classmethod
    def from_record(cls, state: Dict[str, Any]) -> "LinearCorrelationSC":
        return cls(
            state["name"], state["table"], state["column_a"],
            state["column_b"], state["slope"], state["intercept"],
            state["epsilon"], state["confidence"],
        )

    def repair(self, violating: Dict[str, Any]) -> bool:
        return self.widen(violating.get(self.column_a), violating.get(self.column_b))

    def workload_match(
        self, workload: "Workload", database: Optional["Database"]
    ) -> Tuple[float, float]:
        matched = workload.predicate_frequency(self.table_name, self.column_b)
        helpfulness = 0.5
        if database is not None:
            catalog = database.catalog
            has_a = catalog.find_index(self.table_name, [self.column_a]) is not None
            has_b = catalog.find_index(self.table_name, [self.column_b]) is not None
            if has_a and not has_b:
                helpfulness = 1.0  # opens an otherwise-unavailable path
            elif not has_a:
                helpfulness = 0.3  # estimation-only value
        return matched, helpfulness

    # -- rewrite / twinning support ----------------------------------------------

    def introduced_predicate(
        self, b_expression: ast.Expression, qualifier: Optional[str] = None
    ) -> ast.BetweenExpr:
        """Build ``A BETWEEN k*b_expr + b - eps AND k*b_expr + b + eps``.

        ``b_expression`` is whatever the query compared B with (typically a
        literal).  ``qualifier`` optionally qualifies the introduced column
        reference with the query's table binding.
        """
        center = ast.BinaryOp(
            "+",
            ast.BinaryOp("*", ast.Literal(self.slope), b_expression),
            ast.Literal(self.intercept),
        )
        low = ast.BinaryOp("-", center, ast.Literal(self.epsilon))
        high = ast.BinaryOp("+", center, ast.Literal(self.epsilon))
        column = ast.ColumnRef(self.column_a, qualifier)
        return ast.BetweenExpr(column, low, high)

    def row_condition(self) -> ast.Expression:
        return self.introduced_predicate(ast.ColumnRef(self.column_b))

    def interval_columns(self) -> List[str]:
        return [self.column_a, self.column_b]

    def implied_interval(
        self, target_column: str, known: Dict[str, Interval]
    ) -> Interval:
        """Both directions: B bounded implies A via the model; A bounded
        implies B via the inverted model (slope != 0)."""
        if target_column == self.column_a and self.column_b in known:
            return self.forward_interval(known[self.column_b])
        if (
            target_column == self.column_b
            and self.column_a in known
            and self.slope != 0.0
        ):
            inverted = LinearBand(
                1.0 / self.slope,
                -self.intercept / self.slope,
                self.epsilon / abs(self.slope),
            )
            return inverted.forward_interval(known[self.column_a])
        return Interval.unbounded()

    def introduction_targets(
        self, known: Dict[str, Interval]
    ) -> List[Tuple[str, Optional[str]]]:
        """Introduction only predicts A from B: B is the column queries
        constrain and A the one an index opens (twinning and AST routing
        use both directions)."""
        if self.column_b not in known:
            return []
        return [(self.column_a, self.column_b)]

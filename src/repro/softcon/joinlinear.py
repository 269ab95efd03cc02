"""Inter-table linear correlations over a join path.

Paper, Section 2 (after discussing [10]'s within-table correlations):

    "Of course, it would be possible in principle to mine for these
    linear correlations between attributes across common join paths.
    Such information could lead to good optimization possibilities.  But
    we would need a way to represent the correlation information and to
    make it available to the optimizer."

The soft-constraint facility *is* that representation.  A
:class:`JoinLinearSC` states that for every tuple of ``one ⋈ two``,
``one.a ~= slope * two.b + intercept`` within ``epsilon``.  For a query
over that join path with a range on ``two.b``, the implied band on
``one.a`` can be introduced (100% confidence) or twinned for estimation —
and pushed down to ``one``'s scan, opening index paths the within-table
machinery cannot reach (DB2 could not even express this as an IC, lacking
inter-table check constraints).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from repro.softcon.joinpath import JoinPathSC
from repro.softcon.linear import LinearBand

if TYPE_CHECKING:  # pragma: no cover
    from repro.discovery.workload_model import Workload
    from repro.engine.database import Database


class JoinLinearSC(LinearBand, JoinPathSC):
    """``one.a ~= slope * two.b + intercept ± epsilon`` over ``one ⋈ two``."""

    kind = "join_linear"

    def __init__(
        self,
        name: str,
        table_one: str,
        column_a: str,
        table_two: str,
        column_b: str,
        join_column_one: str,
        join_column_two: str,
        slope: float,
        intercept: float,
        epsilon: float,
        confidence: float = 1.0,
    ) -> None:
        JoinPathSC.__init__(
            self, name, table_one, column_a, table_two, column_b,
            join_column_one, join_column_two, confidence,
        )
        LinearBand.__init__(self, slope, intercept, epsilon)

    def statement_sql(self) -> str:
        path = self.path
        return (
            f"JOINCHECK ({path.table_one}.{path.column_a} BETWEEN "
            f"{self.slope:g} * {path.table_two}.{path.column_b} + "
            f"{self.intercept:g} - {self.epsilon:g} AND {self.slope:g} * "
            f"{path.table_two}.{path.column_b} + {self.intercept:g} + "
            f"{self.epsilon:g}) ALONG {path.table_one}."
            f"{path.join_column_one} = {path.table_two}."
            f"{path.join_column_two}"
        )

    def record_fields(self) -> Dict[str, Any]:
        fields = JoinPathSC.record_fields(self)
        fields.update(
            slope=self.slope, intercept=self.intercept, epsilon=self.epsilon
        )
        return fields

    @classmethod
    def from_record(cls, state: Dict[str, Any]) -> "JoinLinearSC":
        return cls(
            state["name"], *cls.path_args(state), state["slope"],
            state["intercept"], state["epsilon"], state["confidence"],
        )

    def workload_match(
        self, workload: "Workload", database: Optional["Database"]
    ) -> Tuple[float, float]:
        path = self.path
        matched = self._workload_join_frequency(workload)
        ranged = workload.predicate_frequency(
            path.table_two, path.column_b
        ) + workload.predicate_frequency(path.table_one, path.column_a)
        indexed = database is not None and (
            database.catalog.find_index(path.table_one, [path.column_a]) is not None
        )
        return min(matched, ranged) if ranged else 0.0, 0.9 if indexed else 0.5

    def _severity(self, a_value: Any, b_value: Any) -> float:
        return abs(self.residual(a_value, b_value) or 0.0)

    def repair(self, violating: Dict[str, Any]) -> bool:
        return self.widen(violating.get("__a__"), violating.get("__b__"))

"""Functional-dependency soft constraints.

Per the paper (Section 2, citing [29]): functional dependencies beyond key
information, when explicitly represented, let the optimizer drop
superfluous GROUP BY / ORDER BY columns, saving sort cost.  Denormalized
schemas are full of such FDs (``city -> state``, ``order_id -> customer
fields``), and they are rarely declared — a natural fit for discovery and
soft representation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.softcon.base import SoftConstraint

if TYPE_CHECKING:  # pragma: no cover
    from repro.discovery.workload_model import Workload
    from repro.engine.database import Database


class FunctionalDependencySC(SoftConstraint):
    """``determinants -> dependents`` within one table.

    An absolute FD SC licenses removing the dependent columns from GROUP
    BY / ORDER BY key lists whenever all determinants are present
    (semantics preserved: within a group the dependents are constant).
    """

    kind = "fd"
    maintenance_cost = 3.0

    def __init__(
        self,
        name: str,
        table_name: str,
        determinants: Sequence[str],
        dependents: Sequence[str],
        confidence: float = 1.0,
    ) -> None:
        super().__init__(name, confidence)
        if not determinants or not dependents:
            raise ValueError("FD needs non-empty determinant and dependent sets")
        self.table_name = table_name.lower()
        self.determinants = [c.lower() for c in determinants]
        self.dependents = [c.lower() for c in dependents]
        overlap = set(self.determinants) & set(self.dependents)
        if overlap:
            raise ValueError(f"columns {sorted(overlap)} on both sides of FD")

    def table_names(self) -> List[str]:
        return [self.table_name]

    def statement_sql(self) -> str:
        lhs = ", ".join(self.determinants)
        rhs = ", ".join(self.dependents)
        return f"FD {self.table_name}: ({lhs}) -> ({rhs})"

    def row_satisfies(self, row: Dict[str, Any]) -> Optional[bool]:
        raise NotImplementedError(
            "an FD is a whole-table property; use verify()"
        )

    def record_fields(self) -> Dict[str, Any]:
        return {
            "table": self.table_name,
            "determinants": list(self.determinants),
            "dependents": list(self.dependents),
        }

    @classmethod
    def from_record(cls, state: Dict[str, Any]) -> "FunctionalDependencySC":
        return cls(
            state["name"], state["table"], state["determinants"],
            state["dependents"], state["confidence"],
        )

    def workload_match(
        self, workload: "Workload", database: Optional["Database"]
    ) -> Tuple[float, float]:
        matched = workload.grouping_frequency(
            self.table_name, self.determinants + self.dependents
        )
        return matched, 0.6

    def functional_dependency(self) -> Optional[Tuple[List[str], List[str]]]:
        return self.determinants, self.dependents

    def verify(self, database: "Database") -> Tuple[int, int]:
        """Count rows whose determinant group maps to >1 dependent image.

        A row violates when its determinant values have already been seen
        with a different dependent tuple.  NULL determinants are skipped
        (groups with NULL keys are not comparable).
        """
        table = database.table(self.table_name)
        schema = table.schema
        det_positions = [schema.position(c) for c in self.determinants]
        dep_positions = [schema.position(c) for c in self.dependents]
        images: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
        total = 0
        violations = 0
        for row in table.scan_rows():
            total += 1
            key = tuple(row[p] for p in det_positions)
            if any(part is None for part in key):
                continue
            image = tuple(row[p] for p in dep_positions)
            seen = images.get(key)
            if seen is None:
                images[key] = image
            elif seen != image:
                violations += 1
        self.record_verification(violations, total)
        return violations, total

    # -- incremental check support ------------------------------------------------

    def check_new_row(
        self, database: "Database", table_name: str, row: Dict[str, Any]
    ) -> Tuple[Optional[Dict[str, Any]], int]:
        return (row if self.row_conflicts(database, row) else None), 1

    def row_conflicts(
        self, database: "Database", row: Dict[str, Any]
    ) -> bool:
        """Whether inserting ``row`` introduces a second dependent image.

        Used for synchronous maintenance of an absolute FD: probe existing
        rows with the same determinant values and compare dependents.
        """
        key = [row.get(c) for c in self.determinants]
        if any(part is None for part in key):
            return False
        matches = database.lookup_key(self.table_name, self.determinants, key)
        if not matches:
            return False
        table = database.table(self.table_name)
        schema = table.schema
        dep_positions = [schema.position(c) for c in self.dependents]
        new_image = tuple(row.get(c) for c in self.dependents)
        for row_id in matches:
            existing = table.fetch_if_live(row_id)
            if existing is None:
                continue
            if tuple(existing[p] for p in dep_positions) != new_image:
                return True
        return False

"""Shared machinery for inter-table soft constraints over a join path.

Both join holes (:mod:`repro.softcon.holes`) and inter-table linear
correlations (:mod:`repro.softcon.joinlinear`) characterize attribute
pairs (one.a, two.b) over ``one ⋈ two``.  :class:`JoinPathSpec` holds the
path and the two operations on it: enumerating the join result's (a, b)
pairs, and probing the pairs a single new row creates (the expensive
synchronous maintenance step of Section 4.3).  :class:`JoinPathSC` is
what the two kinds share on top: verification and the synchronous check
are "every pair satisfies the kind's pair predicate".
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.softcon.base import SoftConstraint

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import Database


class JoinPathSpec:
    """The join path and profiled attribute pair of an inter-table SC."""

    __slots__ = (
        "table_one",
        "column_a",
        "table_two",
        "column_b",
        "join_column_one",
        "join_column_two",
    )

    def __init__(
        self,
        table_one: str,
        column_a: str,
        table_two: str,
        column_b: str,
        join_column_one: str,
        join_column_two: str,
    ) -> None:
        self.table_one = table_one.lower()
        self.column_a = column_a.lower()
        self.table_two = table_two.lower()
        self.column_b = column_b.lower()
        self.join_column_one = join_column_one.lower()
        self.join_column_two = join_column_two.lower()

    def join_pairs(self, database: "Database") -> Iterable[Tuple[Any, Any]]:
        """Yield (a, b) for every tuple of ``one ⋈ two`` (hash join)."""
        one = database.table(self.table_one)
        two = database.table(self.table_two)
        a_position = one.schema.position(self.column_a)
        join_one = one.schema.position(self.join_column_one)
        b_position = two.schema.position(self.column_b)
        join_two = two.schema.position(self.join_column_two)
        build: Dict[Any, List[Any]] = {}
        for row in two.scan_rows():
            key = row[join_two]
            if key is not None:
                build.setdefault(key, []).append(row[b_position])
        for row in one.scan_rows():
            key = row[join_one]
            if key is None:
                continue
            for b_value in build.get(key, ()):
                yield row[a_position], b_value

    def pairs_for_new_row(
        self, database: "Database", table_name: str, row: Dict[str, Any]
    ) -> List[Tuple[Any, Any]]:
        """The (a, b) join pairs a freshly inserted row participates in.

        Probes the *other* table through the join key — the join work that
        makes absolute maintenance of inter-table SCs expensive.  Rows
        with NULL join keys or NULL profiled attributes produce no pairs.
        """
        if table_name == self.table_one:
            join_value = row.get(self.join_column_one)
            a_value = row.get(self.column_a)
            if join_value is None or a_value is None:
                return []
            mates = _mate_values(
                database,
                self.table_two,
                self.join_column_two,
                join_value,
                self.column_b,
            )
            return [(a_value, b_value) for b_value in mates]
        if table_name == self.table_two:
            join_value = row.get(self.join_column_two)
            b_value = row.get(self.column_b)
            if join_value is None or b_value is None:
                return []
            mates = _mate_values(
                database,
                self.table_one,
                self.join_column_one,
                join_value,
                self.column_a,
            )
            return [(a_value, b_value) for a_value in mates]
        return []


def _mate_values(
    database: "Database",
    table_name: str,
    join_column: str,
    join_value: Any,
    wanted_column: str,
) -> List[Any]:
    matches = database.lookup_key(table_name, [join_column], [join_value])
    table = database.table(table_name)
    position = table.schema.position(wanted_column)
    values = []
    for row_id in matches:
        row = table.fetch_if_live(row_id)
        if row is not None and row[position] is not None:
            values.append(row[position])
    return values


class JoinPathSC(SoftConstraint):
    """A soft constraint on the attribute pair (one.a, two.b) of
    ``one ⋈ two``: it holds when every join pair satisfies the kind's
    ``pair_satisfies(a, b)``."""

    maintenance_cost = 10.0  # each check joins the new row to the other side

    def __init__(
        self,
        name: str,
        table_one: str,
        column_a: str,
        table_two: str,
        column_b: str,
        join_column_one: str,
        join_column_two: str,
        confidence: float = 1.0,
    ) -> None:
        super().__init__(name, confidence)
        self.path = JoinPathSpec(
            table_one, column_a, table_two, column_b,
            join_column_one, join_column_two,
        )

    def table_names(self) -> List[str]:
        return [self.path.table_one, self.path.table_two]

    def join_path(self) -> JoinPathSpec:
        return self.path

    def _severity(self, a_value: Any, b_value: Any) -> float:
        """Rank among a new row's violating pairs; the worst one is
        reported so a single repair covers them all."""
        return 0.0

    def record_fields(self) -> Dict[str, Any]:
        return {field: getattr(self.path, field) for field in JoinPathSpec.__slots__}

    @staticmethod
    def path_args(state: Dict[str, Any]) -> List[str]:
        """The constructor's path arguments, from a record."""
        return [state[field] for field in JoinPathSpec.__slots__]

    # -- verification / maintenance ------------------------------------------------

    def verify(self, database: "Database") -> Tuple[int, int]:
        """Check every join pair.  This performs the join — exactly the
        expense the paper notes makes absolute maintenance of inter-table
        SCs costly (Section 4.3)."""
        violations = 0
        total = 0
        for a_value, b_value in self.path.join_pairs(database):
            total += 1
            if not self.pair_satisfies(a_value, b_value):
                violations += 1
        self.record_verification(violations, total)
        return violations, total

    def check_new_row(
        self, database: "Database", table_name: str, row: Dict[str, Any]
    ) -> Tuple[Optional[Dict[str, Any]], int]:
        """Join the new row to the other table and check its pairs."""
        pairs = self.path.pairs_for_new_row(database, table_name, row)
        violating = [pair for pair in pairs if not self.pair_satisfies(*pair)]
        if not violating:
            return None, len(pairs)
        a_value, b_value = max(violating, key=lambda pair: self._severity(*pair))
        return {"__a__": a_value, "__b__": b_value}, len(pairs)

    def _workload_join_frequency(self, workload: Any) -> float:
        path = self.path
        return workload.join_frequency(
            path.table_one, path.join_column_one,
            path.table_two, path.join_column_two,
        )

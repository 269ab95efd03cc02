"""ASCs as automated summary tables with exceptions (paper Section 4.4).

An integrity constraint can be rethought as a materialized view that must
always be empty.  An *exception table* relaxes this: it is a real,
incrementally-maintained materialized view

    ``SELECT * FROM base WHERE NOT (sc_condition)``

holding exactly the rows that violate the soft constraint.  Updates that
violate the SC are **allowed** — the exceptions are just stored.  Any plan
that exploits the SC must also process the exceptions; while the SC is a
good characterization the exception table is nearly empty and the addendum
costs almost nothing (the paper's ``late_shipments`` example).

The rewriter (:mod:`repro.optimizer.rewrite.ast_routing`) produces the

    ``(base WHERE query-pred AND introduced-pred)
      UNION ALL (exceptions WHERE query-pred)``

plan; ``UNION ALL`` is safe because the two branches are disjoint by
construction.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.engine.database import ChangeEvent, Database
from repro.engine.schema import TableSchema
from repro.softcon.base import SoftConstraint


class ExceptionTable:
    """The materialized exceptions of a single-table soft constraint.

    Parameters
    ----------
    database:
        The owning database; the exception table is created in it.
    constraint:
        A single-table SC implementing :meth:`row_satisfies` (check-style,
        min/max or linear correlation).
    name:
        Name for the materialized table (default
        ``<constraint>_exceptions``).
    """

    def __init__(
        self,
        database: Database,
        constraint: SoftConstraint,
        name: Optional[str] = None,
    ) -> None:
        (base_name,) = constraint.table_names()
        self.database = database
        self.constraint = constraint
        self.base_table = base_name
        self.name = (name or f"{constraint.name}_exceptions").lower()
        base_schema = database.table(base_name).schema
        schema = TableSchema(
            self.name,
            [type(c)(c.name, c.type, c.nullable) for c in base_schema.columns],
        )
        database.create_table(schema)
        self._column_names = base_schema.column_names()
        self._populate()
        database.catalog.add_summary_table(self.name, self)
        database.add_observer(self._on_change)
        if database.durability is not None:
            database.durability.log_bind_exception_table(
                self.name, constraint.name, self.base_table
            )

    @classmethod
    def rebind(
        cls,
        database: Database,
        constraint: SoftConstraint,
        name: str,
    ) -> "ExceptionTable":
        """Re-attach a recovered exception table to its constraint.

        Recovery restores the materialized table's *data* through normal
        page/WAL replay; what is lost is the live binding — the summary-
        table registration and the change observer.  This constructor
        variant rebuilds only that binding, without creating or
        repopulating the table.
        """
        self = cls.__new__(cls)
        self.database = database
        self.constraint = constraint
        (self.base_table,) = constraint.table_names()
        self.name = name.lower()
        self._column_names = database.table(
            self.base_table
        ).schema.column_names()
        database.catalog.add_summary_table(self.name, self)
        database.add_observer(self._on_change)
        return self

    # -- views -----------------------------------------------------------------

    @property
    def exception_count(self) -> int:
        return self.database.table(self.name).row_count

    @property
    def exception_rate(self) -> float:
        base_rows = self.database.table(self.base_table).row_count
        if base_rows == 0:
            return 0.0
        return self.exception_count / base_rows

    def definition_sql(self) -> str:
        return (
            f"CREATE SUMMARY TABLE {self.name} AS (SELECT * FROM "
            f"{self.base_table} WHERE NOT ({self.constraint.statement_sql()}))"
        )

    # -- maintenance ---------------------------------------------------------------

    def _populate(self) -> None:
        base = self.database.table(self.base_table)
        for row in list(base.scan_rows()):
            if self._violates(row):
                self.database.insert(self.name, row)

    def refresh(self) -> None:
        """Rebuild from scratch (used after bulk changes in tests/benches)."""
        self.database.table(self.name).truncate()
        # Truncate bypasses index maintenance; rebuild any indexes.
        for index in self.database.catalog.indexes_on(self.name):
            index.rebuild([])
        self._populate()

    def _on_change(self, event: ChangeEvent) -> None:
        if event.table_name != self.base_table:
            return
        if event.old_row is not None and self._violates(event.old_row):
            self._remove_image(event.old_row)
        if event.new_row is not None and self._violates(event.new_row):
            self.database.insert(self.name, event.new_row)

    def _violates(self, row: Tuple[Any, ...]) -> bool:
        row_dict = dict(zip(self._column_names, row))
        return self.constraint.row_satisfies(row_dict) is False

    def _remove_image(self, row: Tuple[Any, ...]) -> None:
        """Remove one stored exception matching ``row`` (if present)."""
        table = self.database.table(self.name)
        for row_id, stored in table.scan():
            if stored == row:
                self.database.delete_row(self.name, row_id)
                return

    def __repr__(self) -> str:
        return (
            f"ExceptionTable({self.name} for {self.constraint.name}, "
            f"exceptions={self.exception_count})"
        )

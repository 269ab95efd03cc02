"""RUNSTATS: collect table and column statistics into the catalog.

:func:`runstats` scans a table once and produces a :class:`TableStats`
holding, per column: null count, distinct count, low/high values, top-k
frequent values, and (for ordered domains) an equi-depth histogram.  The
statistics carry a logical *collection epoch* — a monotonically increasing
counter of statements run against the database is unavailable, so the
caller may pass its own epoch (the soft-constraint currency model in
:mod:`repro.softcon.currency` uses simulated days).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.engine.database import Database
from repro.engine.schema import TableSchema
from repro.stats.frequent import FrequentValues
from repro.stats.histogram import EquiDepthHistogram


class ColumnStats:
    """Statistics for one column."""

    def __init__(
        self,
        column_name: str,
        row_count: int,
        null_count: int,
        distinct_count: int,
        low: Any = None,
        high: Any = None,
        frequent: Optional[FrequentValues] = None,
        histogram: Optional[EquiDepthHistogram] = None,
    ) -> None:
        self.column_name = column_name
        self.row_count = row_count
        self.null_count = null_count
        self.distinct_count = distinct_count
        self.low = low
        self.high = high
        self.frequent = frequent
        self.histogram = histogram

    @property
    def non_null_count(self) -> int:
        return self.row_count - self.null_count

    @property
    def null_fraction(self) -> float:
        if self.row_count == 0:
            return 0.0
        return self.null_count / self.row_count

    def __repr__(self) -> str:
        return (
            f"ColumnStats({self.column_name}: rows={self.row_count}, "
            f"nulls={self.null_count}, distinct={self.distinct_count}, "
            f"range={self.low!r}..{self.high!r})"
        )


class VirtualColumnStats(ColumnStats):
    """Statistics over a *derived expression* (paper Section 5.1's second
    mechanism: virtual columns).

    ``expression`` is the defining scalar expression over the table's
    (bare-named) columns — e.g. ``end_date - start_date``.  The estimator
    matches query predicates whose left side equals this expression and
    prices them with the virtual histogram.
    """

    def __init__(self, expression: Any, sql_text: str, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.expression = expression
        self.sql_text = sql_text

    def __repr__(self) -> str:
        return (
            f"VirtualColumnStats({self.column_name} = {self.sql_text}: "
            f"rows={self.row_count}, distinct={self.distinct_count})"
        )


class TableStats:
    """Statistics for one table (rows, pages, per-column stats).

    ``virtual`` holds statistics over derived expressions (virtual
    columns), keyed by the virtual column's name.
    """

    def __init__(
        self,
        table_name: str,
        row_count: int,
        page_count: int,
        columns: Dict[str, ColumnStats],
        epoch: int = 0,
    ) -> None:
        self.table_name = table_name
        self.row_count = row_count
        self.page_count = page_count
        self.columns = columns
        self.virtual: Dict[str, VirtualColumnStats] = {}
        self.epoch = epoch
        # Raised when the table's physical layout changed under these
        # stats (e.g. an index rebuild); RUNSTATS clears it by replacing
        # the whole object.
        self.stale = False

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())

    def __repr__(self) -> str:
        return (
            f"TableStats({self.table_name}: rows={self.row_count}, "
            f"pages={self.page_count}, columns={sorted(self.columns)})"
        )


def runstats(
    database: Database,
    table_name: str,
    num_buckets: int = 20,
    num_frequent: int = 10,
    epoch: int = 0,
    store: bool = True,
) -> TableStats:
    """Collect statistics for a table; optionally store them in the catalog.

    Histograms are built for every ordered column type; frequent values
    for every column.  The scan's page reads are counted like any other
    access (RUNSTATS costs I/O in real systems too).
    """
    table = database.table(table_name)
    schema: TableSchema = table.schema
    column_values: Dict[str, List[Any]] = {
        column.name: [] for column in schema.columns
    }
    null_counts: Dict[str, int] = {column.name: 0 for column in schema.columns}
    row_count = 0
    for row in table.scan_rows():
        row_count += 1
        for column, value in zip(schema.columns, row):
            if value is None:
                null_counts[column.name] += 1
            else:
                column_values[column.name].append(value)

    columns: Dict[str, ColumnStats] = {}
    for column in schema.columns:
        values = column_values[column.name]
        histogram = None
        if values and column.type.is_ordered:
            histogram = EquiDepthHistogram.build(values, num_buckets)
        frequent = FrequentValues.build(values, num_frequent)
        distinct = len(set(values))
        columns[column.name] = ColumnStats(
            column_name=column.name,
            row_count=row_count,
            null_count=null_counts[column.name],
            distinct_count=distinct,
            low=min(values) if values else None,
            high=max(values) if values else None,
            frequent=frequent,
            histogram=histogram,
        )

    stats = TableStats(
        table_name=schema.name,
        row_count=row_count,
        page_count=table.page_count,
        columns=columns,
        epoch=epoch,
    )
    if store:
        database.catalog.set_statistics(schema.name, stats)
    return stats


def runstats_virtual(
    database: Database,
    table_name: str,
    virtual_name: str,
    expression: Any,
    num_buckets: int = 20,
    num_frequent: int = 10,
) -> VirtualColumnStats:
    """Collect statistics over a derived expression (a *virtual column*).

    Paper Section 5.1's second mechanism for conveying SSC-like
    information to the optimizer: "combine multiple SSCs in virtual
    columns where the distribution statistics on the virtual column can be
    broken down into the individual SSCs."  E.g. a virtual column
    ``duration = end_date - start_date`` gives the estimator an exact
    histogram for predicates like ``end_date - start_date <= 5``.

    ``expression`` may be SQL text or a parsed expression over the
    table's bare column names.  The base table must already have RUNSTATS
    (the virtual stats attach to its :class:`TableStats`).
    """
    from repro.expr.eval import evaluate
    from repro.sql.parser import parse_expression
    from repro.sql.printer import sql_of

    if isinstance(expression, str):
        parsed = parse_expression(expression)
    else:
        parsed = expression
    stats = database.catalog.statistics(table_name)
    if stats is None:
        stats = runstats(database, table_name)
    table = database.table(table_name)
    names = table.schema.column_names()
    values = []
    null_count = 0
    row_count = 0
    for row in table.scan_rows():
        row_count += 1
        value = evaluate(parsed, dict(zip(names, row)))
        if value is None:
            null_count += 1
        else:
            values.append(value)
    histogram = EquiDepthHistogram.build(values, num_buckets) if values else None
    frequent = FrequentValues.build(values, num_frequent)
    virtual = VirtualColumnStats(
        expression=parsed,
        sql_text=sql_of(parsed),
        column_name=virtual_name.lower(),
        row_count=row_count,
        null_count=null_count,
        distinct_count=len(set(values)),
        low=min(values) if values else None,
        high=max(values) if values else None,
        frequent=frequent,
        histogram=histogram,
    )
    stats.virtual[virtual.column_name] = virtual
    return virtual

"""A simple workload model: queries with frequencies and their features.

The selection stage (paper Section 3.2) chooses soft constraints by their
expected utility "with respect to the optimizer's capabilities, the
database's statistics, and the workload".  This module extracts the
workload features that utility scoring needs: which columns queries
predicate on (and how), which join paths they use, and what they group or
order by.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Set, Tuple, Union

from repro.expr import analysis
from repro.sql import ast
from repro.sql.parser import parse_statement


class WorkloadQuery:
    """One workload query with an occurrence frequency."""

    def __init__(self, sql: str, frequency: float = 1.0) -> None:
        self.sql = sql
        self.frequency = frequency
        statement = parse_statement(sql)
        if not ast.is_query(statement):
            raise ValueError("workload queries must be SELECT statements")
        self.statement = statement
        self.tables: Set[str] = set()
        self.alias_to_table: Dict[str, str] = {}
        self.predicate_columns: Set[Tuple[str, str]] = set()  # (table, column)
        self.equality_columns: Set[Tuple[str, str]] = set()
        self.range_columns: Set[Tuple[str, str]] = set()
        self.join_pairs: Set[Tuple[str, str, str, str]] = set()
        self.group_by_columns: List[Tuple[str, str]] = []
        self.order_by_columns: List[Tuple[str, str]] = []
        blocks = (
            statement.branches
            if isinstance(statement, ast.UnionAll)
            else [statement]
        )
        for block in blocks:
            self._extract(block)

    # -- feature extraction ----------------------------------------------------

    def _extract(self, block: ast.SelectStatement) -> None:
        for item in block.from_clause:
            self._collect_tables(item)
        conjuncts = analysis.split_conjuncts(block.where)
        for item in block.from_clause:
            conjuncts.extend(self._join_conditions(item))
        for conjunct in conjuncts:
            self._classify(conjunct)
        for expression in block.group_by:
            if isinstance(expression, ast.ColumnRef):
                self.group_by_columns.append(self._resolve(expression))
        for order in block.order_by:
            if isinstance(order.expression, ast.ColumnRef):
                self.order_by_columns.append(self._resolve(order.expression))

    def _collect_tables(self, item: Union[ast.TableRef, ast.Join]) -> None:
        if isinstance(item, ast.TableRef):
            self.tables.add(item.name)
            self.alias_to_table[item.binding] = item.name
        else:
            self._collect_tables(item.left)
            self._collect_tables(item.right)

    def _join_conditions(
        self, item: Union[ast.TableRef, ast.Join]
    ) -> List[ast.Expression]:
        if isinstance(item, ast.TableRef):
            return []
        conditions = (
            analysis.split_conjuncts(item.condition) if item.condition else []
        )
        return (
            conditions
            + self._join_conditions(item.left)
            + self._join_conditions(item.right)
        )

    def _classify(self, conjunct: ast.Expression) -> None:
        equijoin = analysis.match_equijoin(conjunct)
        if equijoin is not None:
            left, right = equijoin
            left_table, left_column = self._resolve(left)
            right_table, right_column = self._resolve(right)
            key = tuple(
                sorted(
                    [(left_table, left_column), (right_table, right_column)]
                )
            )
            self.join_pairs.add((key[0][0], key[0][1], key[1][0], key[1][1]))
            return
        comparison = analysis.match_column_comparison(conjunct)
        if comparison is not None:
            resolved = self._resolve(comparison.column)
            self.predicate_columns.add(resolved)
            if comparison.op == "=":
                self.equality_columns.add(resolved)
            else:
                self.range_columns.add(resolved)
            return
        between = analysis.match_column_between(conjunct)
        if between is not None:
            resolved = self._resolve(between[0])
            self.predicate_columns.add(resolved)
            self.range_columns.add(resolved)
            return
        for column in analysis.columns_in(conjunct):
            self.predicate_columns.add(self._resolve(column))

    def _resolve(self, column: ast.ColumnRef) -> Tuple[str, str]:
        """Map a column reference to (base_table, column)."""
        if column.table is not None:
            base = self.alias_to_table.get(column.table, column.table)
            return base, column.column
        if len(self.tables) == 1:
            return next(iter(self.tables)), column.column
        return "", column.column

    def __repr__(self) -> str:
        return f"WorkloadQuery({self.sql[:60]!r}, f={self.frequency})"


class Workload:
    """A weighted set of workload queries with aggregate feature counts."""

    def __init__(self, queries: Sequence[WorkloadQuery] = ()) -> None:
        self.queries: List[WorkloadQuery] = list(queries)

    @classmethod
    def from_sql(
        cls, statements: Sequence[Union[str, Tuple[str, float]]]
    ) -> "Workload":
        """Build from SQL strings or (sql, frequency) pairs."""
        queries = []
        for entry in statements:
            if isinstance(entry, tuple):
                queries.append(WorkloadQuery(entry[0], entry[1]))
            else:
                queries.append(WorkloadQuery(entry))
        return cls(queries)

    def add(self, sql: str, frequency: float = 1.0) -> WorkloadQuery:
        query = WorkloadQuery(sql, frequency)
        self.queries.append(query)
        return query

    @property
    def total_frequency(self) -> float:
        return sum(q.frequency for q in self.queries)

    def predicate_frequency(self, table: str, column: str) -> float:
        """Total frequency of queries predicating on (table, column)."""
        key = (table.lower(), column.lower())
        return sum(
            q.frequency for q in self.queries if key in q.predicate_columns
        )

    def equality_frequency(self, table: str, column: str) -> float:
        key = (table.lower(), column.lower())
        return sum(
            q.frequency for q in self.queries if key in q.equality_columns
        )

    def range_frequency(self, table: str, column: str) -> float:
        key = (table.lower(), column.lower())
        return sum(
            q.frequency for q in self.queries if key in q.range_columns
        )

    def join_frequency(
        self, table_one: str, column_one: str, table_two: str, column_two: str
    ) -> float:
        """Frequency of the equi-join path in the workload (order-free)."""
        key = tuple(
            sorted(
                [
                    (table_one.lower(), column_one.lower()),
                    (table_two.lower(), column_two.lower()),
                ]
            )
        )
        wanted = (key[0][0], key[0][1], key[1][0], key[1][1])
        return sum(
            q.frequency for q in self.queries if wanted in q.join_pairs
        )

    def grouping_frequency(self, table: str, columns: Sequence[str]) -> float:
        """Frequency of queries grouping/ordering by all given columns."""
        wanted = {(table.lower(), c.lower()) for c in columns}
        total = 0.0
        for query in self.queries:
            keys = set(query.group_by_columns) | set(query.order_by_columns)
            if wanted <= keys:
                total += query.frequency
        return total

    def common_column_pairs(
        self, table: str, minimum_frequency: float = 1.0
    ) -> List[Tuple[str, str]]:
        """Column pairs of one table that co-occur in query predicates.

        This is the workload-directed search-space restriction for the
        linear miner (the paper: pairs "which appear together commonly in
        workload queries").
        """
        pair_counts: Counter = Counter()
        table = table.lower()
        for query in self.queries:
            columns = sorted(
                {
                    column
                    for (t, column) in query.predicate_columns
                    if t == table
                }
            )
            for at, first in enumerate(columns):
                for second in columns[at + 1 :]:
                    pair_counts[(first, second)] += query.frequency
        return [
            pair
            for pair, count in pair_counts.most_common()
            if count >= minimum_frequency
        ]

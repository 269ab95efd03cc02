"""The system catalog.

The catalog is the registry of every named object in the database: tables,
indexes, integrity constraints, table statistics, soft constraints, and
summary tables (ASTs).  It also implements the *dependency / invalidation*
protocol the paper needs for absolute soft constraints (Section 4.1): cached
query plans register the soft constraints they relied on, and when an ASC is
overturned the catalog invalidates every dependent plan.  Everything
else a cached plan assumes of the catalog — tables, indexes, constraints,
statistics, summary tables, which soft constraints exist — moves one
counter, :attr:`Catalog.epoch`; a plan planned at an older epoch is
planned again.

Statistics and soft-constraint objects are stored by reference; their
classes live in :mod:`repro.stats` and :mod:`repro.softcon` (above this
layer), so the catalog treats them as opaque values keyed by name.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.engine.constraints import Constraint, ForeignKeyConstraint
from repro.engine.index import BTreeIndex
from repro.engine.table import HeapTable
from repro.errors import DuplicateObjectError, UnknownObjectError


class Catalog:
    """Registry of tables, indexes, constraints, statistics and SCs."""

    def __init__(self) -> None:
        self.tables: Dict[str, HeapTable] = {}
        self.indexes: Dict[str, BTreeIndex] = {}
        self._indexes_by_table: Dict[str, List[str]] = {}
        self._constraints: Dict[str, Dict[str, Constraint]] = {}
        self._statistics: Dict[str, Any] = {}
        self._summary_tables: Dict[str, Any] = {}
        # Plan invalidation: dependency name -> callbacks to run when the
        # dependency is dropped/overturned.
        self._invalidation_hooks: Dict[str, List[Callable[[str], None]]] = {}
        # Bumped by every change a cached plan may have planned around;
        # never by ordinary DML.
        self.epoch = 0

    def bump_epoch(self) -> None:
        """Tell every plan cache that plans made before now are stale."""
        self.epoch += 1

    # ------------------------------------------------------------------ tables

    def add_table(self, table: HeapTable) -> None:
        name = table.schema.name
        if name in self.tables:
            raise DuplicateObjectError(f"table {name!r} already exists")
        self.tables[name] = table
        self._indexes_by_table[name] = []
        self._constraints[name] = {}
        self.bump_epoch()

    def table(self, name: str) -> HeapTable:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise UnknownObjectError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self.tables:
            raise UnknownObjectError(f"unknown table {name!r}")
        for index_name in list(self._indexes_by_table.get(key, [])):
            self.drop_index(index_name)
        del self.tables[key]
        self._indexes_by_table.pop(key, None)
        self._constraints.pop(key, None)
        self._statistics.pop(key, None)
        self.bump_epoch()
        self.fire_invalidation(f"table:{key}")

    def table_names(self) -> List[str]:
        return sorted(self.tables)

    # ------------------------------------------------------------------ indexes

    def add_index(self, index: BTreeIndex) -> None:
        if index.name in self.indexes:
            raise DuplicateObjectError(f"index {index.name!r} already exists")
        if index.table_name not in self.tables:
            raise UnknownObjectError(
                f"index {index.name!r} references unknown table "
                f"{index.table_name!r}"
            )
        self.indexes[index.name] = index
        self._indexes_by_table[index.table_name].append(index.name)
        # A quarantined index drops out of access-path selection.
        index.on_quarantine = self.bump_epoch
        self.bump_epoch()

    def index(self, name: str) -> BTreeIndex:
        try:
            return self.indexes[name.lower()]
        except KeyError:
            raise UnknownObjectError(f"unknown index {name!r}") from None

    def drop_index(self, name: str) -> None:
        key = name.lower()
        index = self.indexes.pop(key, None)
        if index is None:
            raise UnknownObjectError(f"unknown index {name!r}")
        self._indexes_by_table[index.table_name].remove(key)
        self.bump_epoch()

    def indexes_on(self, table_name: str) -> List[BTreeIndex]:
        """All indexes over a table, in creation order."""
        return [
            self.indexes[index_name]
            for index_name in self._indexes_by_table.get(table_name.lower(), [])
        ]

    def find_index(
        self, table_name: str, column_names: Iterable[str], prefix_ok: bool = True
    ) -> Optional[BTreeIndex]:
        """Find an index whose key starts with exactly ``column_names``.

        With ``prefix_ok`` the requested columns may be a prefix of the
        index key (usable for probes); otherwise the key must match
        exactly.
        """
        wanted = [c.lower() for c in column_names]
        for index in self.indexes_on(table_name):
            key = index.column_names
            if key[: len(wanted)] == wanted and (prefix_ok or len(key) == len(wanted)):
                return index
        return None

    # -------------------------------------------------------------- constraints

    def add_constraint(self, constraint: Constraint) -> None:
        table_constraints = self._constraints.get(constraint.table_name)
        if table_constraints is None:
            raise UnknownObjectError(
                f"constraint {constraint.name!r} references unknown table "
                f"{constraint.table_name!r}"
            )
        if constraint.name in table_constraints:
            raise DuplicateObjectError(
                f"constraint {constraint.name!r} already exists on "
                f"{constraint.table_name!r}"
            )
        table_constraints[constraint.name] = constraint
        self.bump_epoch()

    def drop_constraint(self, table_name: str, constraint_name: str) -> None:
        table_constraints = self._constraints.get(table_name.lower(), {})
        if constraint_name.lower() not in table_constraints:
            raise UnknownObjectError(
                f"unknown constraint {constraint_name!r} on {table_name!r}"
            )
        del table_constraints[constraint_name.lower()]
        self.bump_epoch()
        self.fire_invalidation(f"constraint:{constraint_name.lower()}")

    def constraints_on(self, table_name: str) -> List[Constraint]:
        """All constraints attached to a table (child side for FKs)."""
        return list(self._constraints.get(table_name.lower(), {}).values())

    def constraint(self, table_name: str, constraint_name: str) -> Constraint:
        try:
            return self._constraints[table_name.lower()][constraint_name.lower()]
        except KeyError:
            raise UnknownObjectError(
                f"unknown constraint {constraint_name!r} on {table_name!r}"
            ) from None

    def foreign_keys_referencing(self, parent_table: str) -> List[ForeignKeyConstraint]:
        """FK constraints whose *parent* is the given table."""
        parent = parent_table.lower()
        result: List[ForeignKeyConstraint] = []
        for table_constraints in self._constraints.values():
            for constraint in table_constraints.values():
                if (
                    isinstance(constraint, ForeignKeyConstraint)
                    and constraint.parent_table == parent
                ):
                    result.append(constraint)
        return result

    def all_constraints(self) -> List[Constraint]:
        result: List[Constraint] = []
        for table_constraints in self._constraints.values():
            result.extend(table_constraints.values())
        return result

    # -------------------------------------------------------------- statistics

    def set_statistics(self, table_name: str, statistics: Any) -> None:
        """Attach runstats to a table (opaque to the catalog)."""
        if table_name.lower() not in self.tables:
            raise UnknownObjectError(f"unknown table {table_name!r}")
        self._statistics[table_name.lower()] = statistics
        self.bump_epoch()

    def statistics(self, table_name: str) -> Optional[Any]:
        return self._statistics.get(table_name.lower())

    # ---------------------------------------------------------- summary tables

    def add_summary_table(self, name: str, definition: Any) -> None:
        """Register an AST / materialized view definition."""
        key = name.lower()
        if key in self._summary_tables:
            raise DuplicateObjectError(f"summary table {name!r} already exists")
        # NOTE: a summary table's materialization is itself a base table
        # registered under the same name, so no collision check against
        # ``self.tables`` here.
        self._summary_tables[key] = definition
        self.bump_epoch()

    def summary_table(self, name: str) -> Any:
        try:
            return self._summary_tables[name.lower()]
        except KeyError:
            raise UnknownObjectError(f"unknown summary table {name!r}") from None

    def summary_tables(self) -> Dict[str, Any]:
        return dict(self._summary_tables)

    def drop_summary_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._summary_tables:
            raise UnknownObjectError(f"unknown summary table {name!r}")
        del self._summary_tables[key]
        self.bump_epoch()
        self.fire_invalidation(f"ast:{key}")

    # ------------------------------------------------------- plan invalidation

    def on_invalidate(self, dependency: str, callback: Callable[[str], None]) -> None:
        """Register a callback fired when ``dependency`` is overturned.

        Dependencies are namespaced strings: ``"constraint:<name>"``,
        ``"softconstraint:<name>"``, ``"table:<name>"``, ``"ast:<name>"``.
        The plan cache uses this to drop plans that relied on an ASC when
        the ASC is violated (paper Section 4.1).
        """
        self._invalidation_hooks.setdefault(dependency, []).append(callback)

    def fire_invalidation(self, dependency: str) -> int:
        """Run and clear the callbacks for a dependency; returns how many."""
        callbacks = self._invalidation_hooks.pop(dependency, [])
        for callback in callbacks:
            callback(dependency)
        return len(callbacks)

"""The database facade: DDL, DML, constraint enforcement and change events.

:class:`Database` ties the storage pieces together:

* all tables share one :class:`~repro.engine.page.IOCounters`, so a query's
  total I/O is a single deterministic number;
* every enforced constraint is checked on the DML paths (informational
  constraints are skipped, per the paper's Section 1);
* PK / UNIQUE constraints get a backing unique index automatically;
* every successful change is published to registered *change observers* —
  this is the hook the soft-constraint maintenance engine (Section 4.3) and
  the exception-table (ASC-as-AST, Section 4.4) machinery subscribe to.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.catalog import Catalog
from repro.engine.constraints import (
    Constraint,
    ConstraintMode,
    UniqueConstraint,
)
from repro.engine.index import BTreeIndex
from repro.engine.page import IOCounters
from repro.engine.row import RowId
from repro.engine.schema import TableSchema
from repro.engine.table import HeapTable


class ChangeEvent(NamedTuple):
    """A committed row change, published to observers after it happens."""

    kind: str  # "insert" | "delete" | "update"
    table_name: str
    old_row: Optional[Tuple[Any, ...]]
    new_row: Optional[Tuple[Any, ...]]


ChangeObserver = Callable[[ChangeEvent], None]

#: Shared no-op scope for the per-row statement-boundary passthroughs;
#: ``nullcontext`` is stateless, so one instance serves every caller.
_NULL_SCOPE = nullcontext()


class Database:
    """A complete single-process database instance."""

    def __init__(self) -> None:
        self.catalog = Catalog()
        self.counters = IOCounters()
        self.fault_injector = None
        self._observers: List[ChangeObserver] = []
        self._auto_index_sequence = 0
        # Set by DurabilityManager.attach; None = in-memory only.
        self.durability = None
        # Imported here: repro.concurrency imports the facade, which
        # imports this module.
        from repro.concurrency.engine import ConcurrencyEngine

        self.concurrency = ConcurrencyEngine(self)

    # -------------------------------------------------------------- resilience

    def attach_fault_injector(self, injector) -> None:
        """Attach (or with ``None``, detach) a fault injector everywhere.

        The injector is propagated to every existing table's page manager
        and every index, and to objects created later.  See
        :class:`repro.resilience.faults.FaultInjector`.
        """
        self.fault_injector = injector
        for name in self.catalog.table_names():
            table = self.catalog.table(name)
            table.pages.fault_injector = injector
            for index in self.catalog.indexes_on(name):
                index.fault_injector = injector

    def rebuild_index(self, name: str) -> BTreeIndex:
        """Rebuild an index from its heap — the recovery path after
        corruption quarantined it.

        The heap scan bypasses injection (the injector is paused for the
        duration) so recovery itself cannot be re-poisoned mid-rebuild.
        The rebuilt index is plannable again: the catalog epoch moves.
        """
        index = self.catalog.index(name)
        table = self.catalog.table(index.table_name)
        with self._injection_paused():
            entries = []
            for row_id, row in table.scan():
                key = index.key_of(row)
                if key is not None:
                    entries.append((key, row_id))
            index.rebuild(entries)
        self.catalog.bump_epoch()
        return index

    @contextmanager
    def _injection_paused(self):
        """Recovery actions (index rebuild, statement rollback) run with
        fault injection paused, so the injector whose fault made them
        necessary cannot re-poison them."""
        injector = self.fault_injector
        if injector is None or not injector.enabled:
            yield
            return
        injector.pause()
        try:
            yield
        finally:
            injector.resume()

    # ------------------------------------------------------------------- DDL

    def create_table(
        self,
        schema: TableSchema,
        constraints: Sequence[Constraint] = (),
    ) -> HeapTable:
        """Create a table and attach its constraints.

        Enforced PRIMARY KEY / UNIQUE constraints get a backing unique
        index; informational ones do not (nothing to check), though the
        optimizer still sees them in the catalog.
        """
        table = HeapTable(schema, self.counters)
        table.pages.fault_injector = self.fault_injector
        self.catalog.add_table(table)
        if self.durability is not None:
            self.durability.log_create_table(schema)
        for constraint in constraints:
            self.add_constraint(constraint)
        return table

    def add_constraint(self, constraint: Constraint) -> None:
        """Attach a constraint, creating a backing index when needed."""
        self.catalog.add_constraint(constraint)
        needs_index = isinstance(constraint, UniqueConstraint) and (
            constraint.mode is ConstraintMode.ENFORCED
        )
        if needs_index and constraint.backing_index_name is None:
            existing = self.catalog.find_index(
                constraint.table_name, constraint.column_names, prefix_ok=False
            )
            if existing is not None and existing.unique:
                constraint.backing_index_name = existing.name
            else:
                self._auto_index_sequence += 1
                index_name = (
                    f"idx_{constraint.table_name}_"
                    f"{constraint.kind}_{self._auto_index_sequence}"
                )
                index = self.create_index(
                    index_name,
                    constraint.table_name,
                    constraint.column_names,
                    unique=True,
                )
                constraint.backing_index_name = index.name
        if self.durability is not None:
            self.durability.log_add_constraint(constraint)

    def create_index(
        self,
        name: str,
        table_name: str,
        column_names: Sequence[str],
        unique: bool = False,
    ) -> BTreeIndex:
        """Create an index and bulk-load it from the current table data."""
        table = self.catalog.table(table_name)
        index = BTreeIndex(
            name, table.schema, column_names, unique=unique, counters=self.counters
        )
        index.fault_injector = self.fault_injector
        # Entries share the RowId objects the table's other indexes hold
        # (the first index's where several do) rather than the scan's own.
        shared: Dict[RowId, RowId] = {}
        for other in reversed(self.catalog.indexes_on(table_name)):
            rids = other.entry_rids
            shared.update(zip(rids, rids))
        entries = []
        for row_id, row in table.scan():
            key = index.key_of(row)
            if key is not None:
                entries.append((key, shared.get(row_id, row_id)))
        index.rebuild(entries)
        self.catalog.add_index(index)
        if self.durability is not None:
            self.durability.log_create_index(index)
        return index

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)
        if self.durability is not None:
            self.durability.log_drop_table(name.lower())

    # -------------------------------------------------------------- accessors

    def table(self, name: str) -> HeapTable:
        return self.catalog.table(name)

    def schema(self, table_name: str) -> TableSchema:
        return self.catalog.table(table_name).schema

    # ----------------------------------------------------------- change events

    def add_observer(self, observer: ChangeObserver) -> None:
        """Subscribe to committed row changes (soft-constraint upkeep)."""
        self._observers.append(observer)

    def remove_observer(self, observer: ChangeObserver) -> None:
        self._observers.remove(observer)

    def _publish(self, event: ChangeEvent) -> None:
        for observer in self._observers:
            observer(event)

    # -------------------------------------------------------------------- DML

    def _statement_scope(self):
        """Durable statement boundary: all WAL records appended inside
        one scope commit together (or, after a crash, vanish together).
        A no-op context without durability or inside an open transaction.

        The passthrough cases short-circuit to a shared null context:
        this runs once per DML row, and even an immediately-yielding
        generator contextmanager is measurable at that frequency.
        """
        durability = self.durability
        if (
            durability is None
            or durability._txn_stack
            or durability.redo.replaying
        ):
            return _NULL_SCOPE
        return durability.statement()

    @contextmanager
    def statement_writer(self, count: int, txn=None):
        """Yield what one DML statement writes its ``count`` rows through
        (``insert`` / ``delete`` / ``update``), so that it is atomic.

        * The caller's open ``txn`` when there is one: its commit or
          rollback decides, and the caller handles a failure.
        * This database itself for at most one row.  One row write is
          atomic by itself, so no implicit transaction is opened and the
          WAL sees only the enclosing statement scope.
        * Otherwise an implicit transaction: committed on a clean exit,
          rolled back (a recovery action, injection paused) on any
          failure, so a mid-statement fault never leaves a prefix applied.
        """
        if txn is not None:
            yield txn
        elif count <= 1:
            yield self
        else:
            from repro.engine.transactions import Transaction

            own = Transaction(self)
            try:
                yield own
            except BaseException:
                with self._injection_paused():
                    own.rollback()
                raise
            own.commit()

    def insert(
        self,
        table_name: str,
        values: Sequence[Any],
        at: Optional[RowId] = None,
    ) -> RowId:
        """Insert one row, enforcing constraints and maintaining indexes.

        ``at`` puts the row in that tombstone instead of a free slot: the
        undo of a delete restores the row at its own rid.
        """
        table = self.catalog.table(table_name)
        row = table.schema.validate_row(values)
        # The engine latch spans each row's checks, heap and index write
        # and version note: a snapshot reader (which latches per page)
        # never sees half a change, and no other writer changes what a
        # check read (a unique-key probe) before the write lands.
        with self.concurrency.latch:
            for constraint in self.catalog.constraints_on(table.name):
                if not constraint.is_informational:
                    constraint.check_insert(self, row)
            with self._statement_scope():
                if at is None:
                    row_id = table.insert(row)
                else:
                    table.place_at(at, row)
                    row_id = at
                for index in self.catalog.indexes_on(table.name):
                    index.insert(row, row_id)
                self.concurrency.note_insert(table.name, row_id)
                if self.durability is not None:
                    self.durability.log_insert(table.name, row_id, row)
                self._publish(ChangeEvent("insert", table.name, None, row))
        return row_id

    def insert_mapping(self, table_name: str, mapping: Dict[str, Any]) -> RowId:
        """Insert from a ``{column: value}`` dict (missing columns → NULL)."""
        table = self.catalog.table(table_name)
        return self.insert(table_name, table.schema.row_from_mapping(mapping))

    def insert_many(
        self, table_name: str, rows: Sequence[Sequence[Any]]
    ) -> List[RowId]:
        """Bulk insert as one atomic statement (see
        :meth:`statement_writer`)."""
        with self.statement_writer(len(rows)) as writer:
            return [writer.insert(table_name, row) for row in rows]

    def delete_row(self, table_name: str, row_id: RowId) -> Tuple[Any, ...]:
        """Delete one row by RowId (RESTRICT semantics for referencing FKs)."""
        table = self.catalog.table(table_name)
        with self.concurrency.latch:
            row = table.fetch(row_id)
            for fk in self.catalog.foreign_keys_referencing(table.name):
                if not fk.is_informational:
                    fk.check_parent_delete(self, row)
            for constraint in self.catalog.constraints_on(table.name):
                if not constraint.is_informational:
                    constraint.check_delete(self, row)
            with self._statement_scope():
                table.delete(row_id)
                for index in self.catalog.indexes_on(table.name):
                    index.delete(row, row_id)
                self.concurrency.note_delete(table.name, row_id, row)
                if self.durability is not None:
                    self.durability.log_delete(table.name, row_id, row)
                self._publish(ChangeEvent("delete", table.name, row, None))
        return row

    def update_row(
        self,
        table_name: str,
        row_id: RowId,
        values: Sequence[Any],
        at: Optional[RowId] = None,
    ) -> RowId:
        """Replace one row's image, enforcing constraints on the new image.

        ``at`` leaves the row at that rid instead of wherever the new
        image fits: the undo of an update restores the row at its
        pre-image rid.
        """
        table = self.catalog.table(table_name)
        new_row = table.schema.validate_row(values)
        with self.concurrency.latch:
            old_row = table.fetch(row_id)
            for constraint in self.catalog.constraints_on(table.name):
                if not constraint.is_informational:
                    constraint.check_update(self, old_row, new_row)
            # Parent-side restrict: if this table is referenced and the
            # update changes referenced key columns, stranded children
            # must block it.
            for fk in self.catalog.foreign_keys_referencing(table.name):
                if fk.is_informational:
                    continue
                positions = [
                    table.schema.position(c) for c in fk.parent_columns
                ]
                old_key = tuple(old_row[p] for p in positions)
                new_key = tuple(new_row[p] for p in positions)
                if old_key != new_key:
                    fk.check_parent_delete(self, old_row)
            with self._statement_scope():
                if at is None:
                    new_id, _ = table.update(row_id, new_row)
                else:
                    table.apply_update(row_id, at, new_row)
                    new_id = at
                for index in self.catalog.indexes_on(table.name):
                    index.update(old_row, row_id, new_row, new_id)
                self.concurrency.note_update(
                    table.name, row_id, new_id, old_row
                )
                if self.durability is not None:
                    self.durability.log_update(
                        table.name, row_id, new_id, new_row
                    )
                self._publish(
                    ChangeEvent("update", table.name, old_row, new_row)
                )
        return new_id

    # With ``insert``, the names a Transaction writes under: a database
    # and a transaction are interchangeable to statement_writer's caller.
    delete = delete_row
    update = update_row

    # ----------------------------------------------------------------- lookups

    def lookup_key(
        self, table_name: str, column_names: Sequence[str], key: Sequence[Any]
    ) -> List[RowId]:
        """RowIds of rows whose named columns equal ``key``.

        Routes through a matching index when one exists (counted as an
        index probe), otherwise falls back to a counted scan — exactly the
        cost asymmetry constraint checking has in a real engine.
        """
        index = self.catalog.find_index(table_name, column_names, prefix_ok=True)
        if index is not None and index.column_names[: len(column_names)] == [
            c.lower() for c in column_names
        ]:
            if len(index.column_names) == len(column_names):
                return index.search(key)
            return [
                rid
                for found_key, rid in index.range_scan(tuple(key), tuple(key))
            ]
        table = self.catalog.table(table_name)
        positions = [table.schema.position(c) for c in column_names]
        probe = tuple(key)
        return [
            row_id
            for row_id, row in table.scan()
            if tuple(row[p] for p in positions) == probe
        ]

    def fetch_rows(
        self, table_name: str, row_ids: Sequence[RowId]
    ) -> List[Tuple[Any, ...]]:
        table = self.catalog.table(table_name)
        return [table.fetch(row_id) for row_id in row_ids]

    # -------------------------------------------------------------------- misc

    def scan_dicts(self, table_name: str) -> Iterator[Dict[str, Any]]:
        """Full scan yielding rows as dicts (convenience for tools/tests)."""
        table = self.catalog.table(table_name)
        names = table.schema.column_names()
        for row in table.scan_rows():
            yield dict(zip(names, row))

    def reset_counters(self) -> None:
        self.counters.reset()

    def __repr__(self) -> str:
        return f"Database(tables={self.catalog.table_names()})"

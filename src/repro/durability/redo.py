"""Redo: the one path by which logged work becomes database state.

Recovery and replicas feed the write-ahead log to a :class:`RedoStream`
record by record, in log order.  A record of a transaction that has not
resolved yet is *held*, and so is everything fed after it; each commit
or abort drains the hold from its head in log order (committed records
apply, aborted ones are dropped) up to the first record whose
transaction is still open.  :meth:`RedoStream.finish` settles the rest:
held committed records apply, unresolved ones are dropped.

So applied state is always what recovery of the log's resolved prefix
builds.  A primary's recovery finishes after the last intact record,
which applies exactly the committed records in log order; a ``promote``
record finishes too (its node had just finished its own stream).  A
replica's stream is never finished: a commit logged behind an open
transaction shows there once that transaction resolves, and a committed
transaction with records on both sides of an open one's first record
shows only its records before it until then.  Whether a stream is a
replica's, and what a ``promote`` record does to the directory, is the
durability manager's to decide.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Any, Deque, Dict, List, Tuple

from repro.durability import codec
from repro.errors import RecoveryError, ReproError

__all__ = ["RedoStream", "rebind_exception_table"]


class RedoStream:
    """Log-order redo over one database (see the module docstring).

    ``replaying`` is True while a record is applied, which silences the
    durability manager's logging hooks.
    """

    def __init__(self) -> None:
        self.database = None
        self.registry = None
        self.replaying = False
        self._held: Deque[Tuple[int, Dict[str, Any]]] = deque()
        # Per transaction with records in the hold: how many, and its
        # outcome (True = committed) once it resolved.  Both entries go
        # when its last held record leaves the hold.
        self._counts: Dict[int, int] = {}
        self._resolved: Dict[int, bool] = {}
        self._positions = count()
        # Highest transaction id fed so far.
        self.max_txn = 0
        # Row changes applied / dropped (a run record counts its rows).
        self.replayed = 0
        self.skipped = 0
        self.warnings: List[str] = []

    @property
    def held(self) -> int:
        """Records fed but not yet applied or dropped."""
        return len(self._held)

    def feed(self, record: Dict[str, Any]) -> None:
        """Take the next record of the log."""
        position = next(self._positions)
        op = record.get("op")
        txn = record.get("txn")
        if txn is not None and txn > self.max_txn:
            self.max_txn = txn
        if op in ("commit", "abort"):
            if txn in self._counts:
                self._resolved[txn] = op == "commit"
                self._drain()
        elif op == "promote":
            self.finish()
        elif op == "epoch":
            pass
        elif txn is None and not self._held:
            self._apply(position, record)
        else:
            self._held.append((position, record))
            if txn is not None:
                self._counts[txn] = self._counts.get(txn, 0) + 1

    def finish(self) -> None:
        """Apply the held committed records; drop the unresolved ones."""
        self._drain(finish=True)

    def _drain(self, finish: bool = False) -> None:
        held, counts, resolved = self._held, self._counts, self._resolved
        while held:
            position, record = held[0]
            txn = record.get("txn")
            committed = True if txn is None else resolved.get(txn)
            if committed is None and not finish:
                return
            held.popleft()
            if committed:
                self._apply(position, record)
            elif record["op"].endswith("_run"):
                self.skipped += len(record["rids"])
            else:
                self.skipped += 1
            if txn is not None:
                left = counts.pop(txn) - 1
                if left:
                    counts[txn] = left
                else:
                    resolved.pop(txn, None)

    def _apply(self, position: int, record: Dict[str, Any]) -> None:
        self.replaying = True
        try:
            self.replayed += self._redo(record)
        except ReproError as error:
            raise RecoveryError(
                f"replay failed at record {position} "
                f"(op={record.get('op')!r}): {error}"
            ) from error
        finally:
            self.replaying = False

    def _redo(self, record: Dict[str, Any]) -> int:
        """Redo one record; returns the number of logical row changes
        it carried (run records bundle a whole statement's rows)."""
        op = record["op"]
        database = self.database
        if op.endswith("_run"):
            table = database.table(record["table"])
            indexes = database.catalog.indexes_on(table.name)
            rids, decode = record["rids"], codec.decode_rid
            if op == "insert_run":
                for rid_state, row_state in zip(rids, record["rows"]):
                    rid, row = decode(rid_state), codec.decode_row(row_state)
                    table.place_at(rid, row)
                    for index in indexes:
                        index.insert(row, rid)
            elif op == "delete_run":
                for rid in map(decode, rids):
                    row = table.delete(rid)
                    for index in indexes:
                        index.delete(row, rid)
            else:
                for pair, row_state in zip(rids, record["rows"]):
                    old_rid, new_rid = decode(pair[0]), decode(pair[1])
                    row = codec.decode_row(row_state)
                    old_row = table.apply_update(old_rid, new_rid, row)
                    for index in indexes:
                        index.update(old_row, old_rid, row, new_rid)
            # Live row changes tick soft-constraint staleness through the
            # change-event observer, which redo bypasses; without this,
            # recovered currency would freeze at its last snapshot.
            if self.registry is not None:
                for _ in rids:
                    self.registry.replay_tick(table.name)
            return len(rids)
        if op == "create_table":
            database.create_table(codec.decode_schema(record["schema"]))
        elif op == "create_index":
            database.create_index(
                record["name"],
                record["table"],
                record["columns"],
                unique=record["unique"],
            )
        elif op == "add_constraint":
            database.catalog.add_constraint(
                codec.decode_constraint(record["constraint"])
            )
        elif op == "drop_table":
            database.drop_table(record["table"])
        elif op == "sc_state":
            if self.registry is None:
                self.warnings.append(
                    "sc_state record ignored: no registry attached"
                )
                return 1
            self.registry.adopt(
                codec.decode_soft_constraint(record["sc"]),
                policy=codec.decode_policy(record["policy"]),
                currency=codec.decode_currency(record["currency"]),
            )
        elif op == "bind_exception_table":
            rebind_exception_table(
                database, self.registry, record, self.warnings
            )
        else:
            raise RecoveryError(f"unknown WAL record op {op!r}")
        return 1


def rebind_exception_table(
    database, registry, binding: Dict[str, Any], warnings: List[str]
) -> None:
    """Re-attach a summary (exception) table to its soft constraint."""
    from repro.softcon.exceptions_ast import ExceptionTable

    constraint = (
        registry._constraints.get(binding["constraint"])
        if registry is not None
        else None
    )
    if constraint is None:
        warnings.append(
            f"exception table {binding['name']!r} references unknown "
            f"soft constraint {binding['constraint']!r}; binding lost"
        )
        return
    ExceptionTable.rebind(database, constraint, binding["name"])

"""Redo: the one path by which logged work becomes database state.

Recovery and replicas feed the write-ahead log to a :class:`RedoStream`
record by record, in log order.  A record of a transaction that has not
resolved yet is *held*, and so is everything fed after it; each commit
or abort applies the hold from its head in log order up to the first
record of a transaction that is still open.  An abort applies like a
commit: a rollback logs its compensations under its own id before the
``abort``, so redo repeats history (ARIES) and rebuilds the pages,
index order and soft-constraint state the live rollback left.  But an
aborted transaction applies whole or not at all: while a record of an
open transaction precedes its last held record, its first record
blocks the hold like an open one, so no node ever shows a rolled-back
write without its undo.  Under writers that keep rolling back while
others are open this can stall a replica; its lag then says so.
:meth:`RedoStream.finish` applies the rest of the hold but drops the
records of still-open transactions, which logged no compensations.

So applied state is always what recovery of the log's resolved prefix
builds.  A primary's recovery finishes after the last intact record; a
``promote`` record finishes too (its node had just finished its own
stream).  A replica's stream is never finished: a commit logged behind
an open transaction shows there once that transaction resolves, and a
committed transaction with records on both sides of an open one's first
record shows only its records before it until then.  Whether a stream
is a replica's, and what a ``promote`` record does to the directory, is
the durability manager's to decide.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Any, Deque, Dict, List, Set, Tuple

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
        # Transactions with records in the hold and no commit or abort
        # yet; and aborted ones whose records the hold cannot reach whole.
        self._open: Set[int] = set()
        self._aborted: Set[int] = set()
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
            if txn in self._open:
                self._open.discard(txn)
                if op == "abort":
                    self._aborted.add(txn)
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
                self._open.add(txn)

    def finish(self) -> None:
        """Apply the held records; drop those of still-open transactions."""
        held, open_txns = self._held, self._open
        while held:
            position, record = held.popleft()
            if record.get("txn") not in open_txns:
                self._apply(position, record)
            elif record["op"].endswith("_run"):
                self.skipped += len(record["rids"])
            else:
                self.skipped += 1
        open_txns.clear()
        self._aborted.clear()

    def _drain(self) -> None:
        """Apply the hold from its head up to the first record of an open
        transaction, or earlier, so no aborted one applies only in part."""
        held, open_txns, aborted = self._held, self._open, self._aborted
        if not aborted:
            while held and held[0][1].get("txn") not in open_txns:
                self._apply(*held.popleft())
            return
        last = {}
        for at, (_position, record) in enumerate(held):
            last[record.get("txn")] = at
        stop = reach = 0
        for at, (_position, record) in enumerate(held):
            txn = record.get("txn")
            if txn in open_txns:
                break
            if txn in aborted:
                reach = max(reach, last[txn])
            if reach <= at:
                stop = at + 1
        for _ in range(stop):
            self._apply(*held.popleft())
        self._aborted = {txn for txn in aborted if last[txn] >= stop}

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

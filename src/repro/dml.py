"""The DML applier: where a parsed INSERT, DELETE or UPDATE becomes row writes.

Every context a statement runs in — the facade in autocommit or inside
``BEGIN``, a lone :class:`~repro.concurrency.session.Session`, a session
under MVCC — calls the same three ``apply_*`` functions and differs only
in three arguments:

``rows``
    ``rows(table)`` yields the ``(rid, image)`` pairs victims are located
    among: by default the heap scan, for a snapshot session its visible
    scan.  :func:`locate` is the one seam where an optimizer-planned rid
    stream (ROADMAP item 2) replaces the scan.
``txn``
    The caller's open :class:`~repro.engine.transactions.Transaction`, or
    None for an autocommit statement, which is then atomic by itself
    (:meth:`~repro.engine.database.Database.statement_writer`).  With a
    ``txn``, a failure leaves the statement's prefix in the transaction
    and the caller must roll the transaction back.
``claim``
    ``claim(table, rid)`` is called once per row the statement writes and
    returns the row's current image: before a located victim is changed
    (the change is computed from that image) and after a fresh row is
    inserted.  Sessions X-lock the row here.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.engine.row import RowId
from repro.engine.table import HeapTable
from repro.errors import ExecutionError
from repro.expr.eval import compile_predicate, evaluate
from repro.sql import ast


def insert_rows(table: HeapTable, statement: ast.Insert) -> List[List[Any]]:
    """The full-width rows an INSERT's VALUES lists denote."""
    rows: List[List[Any]] = []
    for row_expressions in statement.rows:
        values = [evaluate(expr, {}) for expr in row_expressions]
        if statement.columns:
            if len(values) != len(statement.columns):
                raise ExecutionError(
                    "INSERT value count does not match column list"
                )
            values = table.schema.row_from_mapping(
                dict(zip(statement.columns, values))
            )
        rows.append(values)
    return rows


def locate(
    table: HeapTable, where: Optional[ast.Expression], rows=None
) -> List[Tuple[RowId, Tuple[Any, ...]]]:
    """The ``(rid, image)`` pairs of ``rows(table)`` that satisfy ``where``,
    all found before the first write so a statement never sees its own
    changes."""
    source = table.scan() if rows is None else rows(table)
    if where is None:
        return list(source)
    predicate = compile_predicate(where)
    names = table.schema.column_names()
    return [
        (rid, row)
        for rid, row in source
        if predicate(dict(zip(names, row))) is True
    ]


def apply_insert(database, statement, rows=None, txn=None, claim=None) -> int:
    table = database.table(statement.table)
    values = insert_rows(table, statement)
    with database.statement_writer(len(values), txn) as writer:
        for row in values:
            rid = writer.insert(table.name, row)
            if claim is not None:
                claim(table, rid)
    return len(values)


def apply_delete(database, statement, rows=None, txn=None, claim=None) -> int:
    table = database.table(statement.table)
    victims = locate(table, statement.where, rows)
    with database.statement_writer(len(victims), txn) as writer:
        for rid, _image in victims:
            if claim is not None:
                claim(table, rid)
            writer.delete(table.name, rid)
    return len(victims)


def apply_update(database, statement, rows=None, txn=None, claim=None) -> int:
    table = database.table(statement.table)
    names = table.schema.column_names()
    victims = locate(table, statement.where, rows)
    with database.statement_writer(len(victims), txn) as writer:
        for rid, image in victims:
            if claim is not None:
                image = claim(table, rid)
            old = dict(zip(names, image))
            new = dict(old)
            for column, expression in statement.assignments:
                new[column] = evaluate(expression, old)
            writer.update(table.name, rid, [new[name] for name in names])
    return len(victims)

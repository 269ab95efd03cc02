"""The DML applier: where a parsed INSERT, DELETE or UPDATE becomes row writes.

Every context a statement runs in — a
:class:`~repro.concurrency.session.Session` (the facade runs its
statements through one of its own) on the storage fast path or under
MVCC — calls the same three ``apply_*`` functions with its
:class:`~repro.optimizer.planner.PlanCache` (whose optimizer's database
is written) and differs only in two arguments:

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
    inserted.  A session in a transaction X-locks the row here.

Victims come from :func:`locate`, which reads the access path the plan
cache serves for the WHERE's shape as of the snapshot a session installs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, List, Optional, Tuple

from repro.engine.row import RowId
from repro.engine.table import HeapTable
from repro.errors import ExecutionError
from repro.executor.scans import scan_rids
from repro.expr.eval import compile_predicate, evaluate
from repro.optimizer.physical import (
    EmptyResult,
    Extend,
    IndexScan,
    Project,
    SeqScan,
)
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
    plan_cache, table: HeapTable, where: Optional[ast.Expression]
) -> List[Tuple[RowId, Tuple[Any, ...]]]:
    """The ``(rid, image)`` pairs of ``table`` that satisfy ``where``, in
    rid order, all found before the first write so a statement never sees
    its own changes.

    ``SELECT * FROM table WHERE where`` comes from ``plan_cache``, planned
    and compiled once per shape with this statement's literals bound, and
    its leaf is read if it is a scan or an empty result of ``table``; any
    other shape — AST routing's UNION ALL over an exception table, whose
    rids are not this table's — is read as a sequential scan.
    Candidates are checked against ``where`` alone: an introduced
    conjunct is implied by it and an active soft constraint.  Rid order
    keeps the writes (the WAL, change events, row forwarding) those of a
    heap scan.
    """
    query = ast.SelectStatement(
        select_items=[ast.SelectItem(star=True)],
        from_clause=[ast.TableRef(table.name)],
        where=where,
    )
    node = plan_cache.get_plan("", query).root
    while isinstance(node, (Project, Extend)):
        node = node.child
    if not (
        isinstance(node, (SeqScan, IndexScan, EmptyResult))
        and node.table_name == table.name
    ):
        node = SeqScan(table.name, table.name, where)
    if isinstance(node, EmptyResult):
        return []
    predicate = None if where is None else compile_predicate(where)
    names = table.schema.column_names()
    victims = [
        (rid, row)
        for rid, row in scan_rids(plan_cache.optimizer.database, node)
        if predicate is None or predicate(dict(zip(names, row))) is True
    ]
    return sorted(victims, key=itemgetter(0))


def apply_insert(plan_cache, statement, txn=None, claim=None) -> int:
    database = plan_cache.optimizer.database
    table = database.table(statement.table)
    values = insert_rows(table, statement)
    with database.statement_writer(len(values), txn) as writer:
        for row in values:
            rid = writer.insert(table.name, row)
            if claim is not None:
                claim(table, rid)
    return len(values)


def apply_delete(plan_cache, statement, txn=None, claim=None) -> int:
    database = plan_cache.optimizer.database
    table = database.table(statement.table)
    victims = locate(plan_cache, table, statement.where)
    with database.statement_writer(len(victims), txn) as writer:
        for rid, _image in victims:
            if claim is not None:
                claim(table, rid)
            writer.delete(table.name, rid)
    return len(victims)


def apply_update(plan_cache, statement, txn=None, claim=None) -> int:
    database = plan_cache.optimizer.database
    table = database.table(statement.table)
    names = table.schema.column_names()
    assignments = [
        (table.schema.position(column), expression)
        for column, expression in statement.assignments
    ]
    victims = locate(plan_cache, table, statement.where)
    with database.statement_writer(len(victims), txn) as writer:
        for rid, image in victims:
            if claim is not None:
                image = claim(table, rid)
            old = dict(zip(names, image))
            new = list(image)
            for position, expression in assignments:
                new[position] = evaluate(expression, old)
            writer.update(table.name, rid, new)
    return len(victims)

"""Regressions: a rolled-back transaction leaves every row at its own rid.

Recovery and replicas never see an aborted transaction, so they keep each
row it touched where it was before the transaction began.  Rollback has to
put the row back there too.  It used to re-insert an undone DELETE, or
forward an undone UPDATE, wherever the insert hint pointed: the live heap
then held the row at a rid no replayed image agreed with.  Re-issuing the
same statements and committing then broke one of two ways:

* on the facade and on a lone session, the committed delete or update was
  logged against the moved rid, and ``SoftDB.open`` died replaying it;
* with a second session open, the snapshot rebuilt the row at its old rid
  while the heap held it at the new one, and the statement failed with a
  ``TransactionConflictError``.

Each case runs one statement shape in one context on a table spanning
several pages, so the insert hint sits past the victim's page.
"""

import sys
import threading

import pytest

from repro.api import SoftDB

ROWS = 400
VICTIM = 3
WIDE = "w" * 400

SHAPES = {
    "delete": ["DELETE FROM t WHERE id = 3"],
    "forward_then_delete": [
        f"UPDATE t SET v = '{WIDE}' WHERE id = 3",
        "DELETE FROM t WHERE id = 3",
    ],
    "forward_then_update": [
        f"UPDATE t SET v = '{WIDE}' WHERE id = 3",
        "UPDATE t SET v = 'back' WHERE id = 3",
    ],
}

CONTEXTS = ["facade", "lone_session", "two_sessions"]


def open_table(path):
    db = SoftDB.open(path)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(500))")
    db.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, 'v{i}')" for i in range(ROWS))
    )
    assert db.database.table("t").page_count > 1
    return db


def rows_by_rid(db):
    return dict(db.database.table("t").scan())


def rid_of(db, key):
    (rid,) = [rid for rid, row in rows_by_rid(db).items() if row[0] == key]
    return rid


def open_context(db, context):
    """The ``execute`` that runs the script, and the sessions to close."""
    if context == "facade":
        return db.execute, []
    sessions = [db.session("writer")]
    if context == "two_sessions":
        sessions.append(db.session("watcher"))
    return sessions[0].execute, sessions


def assert_recovers(db, path, sessions=()):
    """Close without a checkpoint; replay must rebuild the live heap."""
    live = rows_by_rid(db)
    for session in sessions:
        session.close()
    db.close(checkpoint=False)
    recovered = SoftDB.open(path)
    assert rows_by_rid(recovered) == live
    recovered.close()


@pytest.mark.crash
@pytest.mark.parametrize("context", CONTEXTS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_rollback_restores_rows_in_place(tmp_path, shape, context):
    db = open_table(tmp_path / "db")
    assert rid_of(db, VICTIM).page_id == 0
    execute, sessions = open_context(db, context)
    before = rows_by_rid(db)
    victim = rid_of(db, VICTIM)

    execute("BEGIN")
    for sql in SHAPES[shape]:
        execute(sql)
    execute("ROLLBACK")
    assert rid_of(db, VICTIM) == victim
    assert rows_by_rid(db) == before

    for sql in SHAPES[shape]:
        execute(sql)
    assert_recovers(db, tmp_path / "db", sessions)


WORKERS = 4
ROUNDS = 30


@pytest.mark.crash
def test_concurrent_rollbacks_keep_every_rid(tmp_path):
    """Sessions on more threads than cores each insert a fresh row and
    delete one of their own rows on the insert hint's page, then roll
    back.  An insert that took the slot another open transaction's delete
    freed would make that rollback fail or put the row somewhere else.

    The primary-key check of each insert and each undone delete probes
    the index while other threads write it.  It used to run outside the
    engine latch, where a probe that straddled a concurrent insert read a
    neighbour's entry and refused a fresh key as a duplicate."""
    db = open_table(tmp_path / "db")
    sessions = [db.session(f"w{index}") for index in range(WORKERS)]
    before = rows_by_rid(db)
    errors = []

    def work(index):
        session = sessions[index]
        try:
            for round_no in range(ROUNDS):
                key = ROWS - 1 - index - WORKERS * round_no
                fresh = ROWS + index * ROUNDS + round_no
                session.execute("BEGIN")
                session.execute(f"INSERT INTO t VALUES ({fresh}, 'x')")
                session.execute(f"DELETE FROM t WHERE id = {key}")
                session.execute(f"SELECT v FROM t WHERE id = {key}")
                session.execute("ROLLBACK")
            session.execute(f"DELETE FROM t WHERE id = {index}")
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [
        threading.Thread(target=work, args=(index,), daemon=True)
        for index in range(WORKERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "worker thread hung"
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert rows_by_rid(db) == {
        rid: row for rid, row in before.items() if row[0] >= WORKERS
    }
    assert_recovers(db, tmp_path / "db", sessions)

"""Regressions: a facade transaction is isolated like a session's.

``SoftDB.execute("BEGIN")`` used to open a bare undo-log transaction that
took no snapshot, no row locks and no versioned writes, while every
``Session`` went through the concurrency engine.  With a session open,
that second path let two anomalies of Berenson et al. ("A Critique of
ANSI SQL Isolation Levels", SIGMOD 1995) through:

* a dirty read (P1): a session read the facade transaction's uncommitted
  UPDATE, alone or with another session open;
* a lost update (P4): the facade committed over a row a session held
  X-locked, the session's ROLLBACK then restored its own before-image,
  and the live table disagreed with what recovery replays.

Separately, a commit never vacuumed: the committer's snapshot was still
registered when the engine checked whether any snapshot needed the
version chains, so every session transaction left its chains behind.
"""

import threading
import time

import pytest

from repro.api import SoftDB

pytestmark = pytest.mark.mvcc


def kv_db(path=None, rows=((1, 10),)):
    db = SoftDB() if path is None else SoftDB.open(path)
    db.execute("CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
    db.execute(
        "INSERT INTO kv VALUES "
        + ", ".join(f"({key}, {value})" for key, value in rows)
    )
    return db


def value(execute, key=1):
    return execute(f"SELECT v FROM kv WHERE id = {key}").rows[0]["v"]


def test_lone_session_does_not_read_facade_uncommitted_update():
    db = kv_db()
    with db.session() as session:
        db.execute("BEGIN")
        db.execute("UPDATE kv SET v = 99 WHERE id = 1")
        assert value(session.execute) == 10
        db.execute("COMMIT")
        assert value(session.execute) == 99


def test_session_does_not_read_facade_uncommitted_update_with_two_open():
    db = kv_db()
    with db.session() as reader, db.session():
        db.execute("BEGIN")
        db.execute("UPDATE kv SET v = 77 WHERE id = 1")
        assert value(reader.execute) == 10
        db.execute("COMMIT")
        assert value(reader.execute) == 77


def test_facade_waits_for_session_row_lock_and_recovery_agrees(tmp_path):
    db = kv_db(tmp_path / "db")
    session = db.session()
    engine = db.database.concurrency
    session.execute("BEGIN")
    session.execute("UPDATE kv SET v = 11 WHERE id = 1")
    errors = []

    def facade_transaction():
        try:
            db.execute("BEGIN")
            db.execute("UPDATE kv SET v = 12 WHERE id = 1")
            db.execute("COMMIT")
        except Exception as error:  # surfaced by the assertion below
            errors.append(error)

    waits = engine.locks.lock_waits
    writer = threading.Thread(target=facade_transaction)
    writer.start()
    deadline = time.monotonic() + 5.0
    while engine.locks.lock_waits == waits and time.monotonic() < deadline:
        time.sleep(0.005)
    assert engine.locks.lock_waits == waits + 1, "the facade did not wait"
    assert writer.is_alive()
    session.execute("ROLLBACK")
    writer.join(timeout=10.0)
    assert not writer.is_alive() and errors == []
    session.close()
    live = dict(db.database.table("kv").scan())
    assert value(db.execute) == 12
    db.close()
    recovered = SoftDB.open(tmp_path / "db")
    assert dict(recovered.database.table("kv").scan()) == live
    recovered.close()


def test_commits_vacuum_their_version_chains():
    keys = range(1, 201)
    db = kv_db(rows=[(key, 0) for key in keys])
    with db.session() as session:
        versions = db.database.concurrency.versions
        for key in keys:
            session.execute("BEGIN")
            session.execute(f"UPDATE kv SET v = 1 WHERE id = {key}")
            session.execute("COMMIT")
        for key in keys:
            db.execute("BEGIN")
            db.execute(f"UPDATE kv SET v = 2 WHERE id = {key}")
            db.execute("COMMIT")
        assert versions.live_chains == 0
        assert versions.versions_recorded >= 400

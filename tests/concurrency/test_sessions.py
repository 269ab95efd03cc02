"""Session semantics: snapshots, explicit transactions, typed conflicts.

These pin down the contract ISSUE 8 promises: snapshot-isolation reads
that never block, strict-2PL writers with first-updater-wins,
deadlocks surfacing as typed :class:`~repro.errors.DeadlockError`
(victim rolled back, survivor commits), explicit BEGIN/COMMIT/ROLLBACK
at both the facade and session layers, and the asyncio TCP front end
round-tripping results and typed errors.
"""

import asyncio
import threading

import pytest

from repro.api import SoftDB
from repro.errors import (
    DeadlockError,
    TransactionConflictError,
    TransactionError,
    UnknownObjectError,
)


@pytest.fixture
def db():
    handle = SoftDB()
    handle.execute("CREATE TABLE kv (id INT PRIMARY KEY, val INT)")
    handle.execute("INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)")
    yield handle
    handle.close()


def rows(result):
    return result.rows


# -- facade-level explicit transactions ---------------------------------------


def test_facade_commit_persists(db):
    db.execute("BEGIN")
    db.execute("UPDATE kv SET val = 11 WHERE id = 1")
    db.execute("INSERT INTO kv VALUES (4, 40)")
    db.execute("COMMIT")
    assert db.query("SELECT val FROM kv WHERE id = 1") == [{"val": 11}]
    assert db.query("SELECT val FROM kv WHERE id = 4") == [{"val": 40}]


def test_facade_rollback_restores_exact_state(db):
    before = db.query("SELECT id, val FROM kv ORDER BY id")
    db.execute("BEGIN")
    db.execute("UPDATE kv SET val = 99 WHERE id = 2")
    db.execute("DELETE FROM kv WHERE id = 3")
    db.execute("INSERT INTO kv VALUES (5, 50)")
    db.execute("ROLLBACK")
    assert db.query("SELECT id, val FROM kv ORDER BY id") == before


def test_facade_rejects_ddl_inside_transaction(db):
    db.execute("BEGIN")
    with pytest.raises(TransactionError):
        db.execute("CREATE TABLE other (x INT)")
    db.execute("ROLLBACK")


def test_commit_without_begin_is_typed_error(db):
    with pytest.raises(TransactionError):
        db.execute("COMMIT")
    with pytest.raises(TransactionError):
        db.execute("ROLLBACK")


# -- session snapshot isolation -----------------------------------------------


def test_reader_sees_pre_transaction_state_until_commit(db):
    with db.session("writer") as s1, db.session("reader") as s2:
        s1.execute("BEGIN")
        s1.execute("UPDATE kv SET val = 111 WHERE id = 1")
        # Uncommitted write is invisible to another session — and the
        # read does not block despite s1 holding the row's X lock.
        assert rows(s2.execute("SELECT val FROM kv WHERE id = 1")) == [
            {"val": 10}
        ]
        s1.execute("COMMIT")
        assert rows(s2.execute("SELECT val FROM kv WHERE id = 1")) == [
            {"val": 111}
        ]


def test_open_snapshot_is_stable_across_peer_commit(db):
    with db.session() as s1, db.session() as s2:
        s2.execute("BEGIN")
        assert rows(s2.execute("SELECT val FROM kv WHERE id = 2")) == [
            {"val": 20}
        ]
        s1.execute("UPDATE kv SET val = 222 WHERE id = 2")  # autocommit
        # s2's transaction snapshot predates the commit: repeatable read.
        assert rows(s2.execute("SELECT val FROM kv WHERE id = 2")) == [
            {"val": 20}
        ]
        s2.execute("COMMIT")
        assert rows(s2.execute("SELECT val FROM kv WHERE id = 2")) == [
            {"val": 222}
        ]


def test_own_writes_visible_inside_transaction(db):
    with db.session() as s1:
        s1.execute("BEGIN")
        s1.execute("UPDATE kv SET val = 12 WHERE id = 1")
        assert rows(s1.execute("SELECT val FROM kv WHERE id = 1")) == [
            {"val": 12}
        ]
        s1.execute("ROLLBACK")
        assert rows(s1.execute("SELECT val FROM kv WHERE id = 1")) == [
            {"val": 10}
        ]


def test_session_rollback_undoes_insert_and_delete(db):
    with db.session() as s1:
        s1.execute("BEGIN")
        s1.execute("INSERT INTO kv VALUES (7, 70)")
        s1.execute("DELETE FROM kv WHERE id = 3")
        s1.execute("ROLLBACK")
        got = rows(s1.execute("SELECT id FROM kv ORDER BY id"))
        assert [r["id"] for r in got] == [1, 2, 3]


# -- write conflicts ----------------------------------------------------------


def _in_thread(fn):
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as error:  # propagate to the main thread
            box["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


def test_first_updater_wins_raises_conflict(db):
    with db.session() as s1, db.session() as s2:
        s1.execute("BEGIN")
        s1.execute("UPDATE kv SET val = 100 WHERE id = 1")
        s2.execute("BEGIN")

        # s2 blocks behind s1's X lock; once s1 commits, s2 sees a row
        # version it could not have read and must abort, not overwrite.
        def racer():
            s2.execute("UPDATE kv SET val = 200 WHERE id = 1")

        thread, box = _in_thread(racer)
        thread.join(timeout=0.3)
        assert thread.is_alive(), "racer should be lock-blocked"
        s1.execute("COMMIT")
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert isinstance(box.get("error"), TransactionConflictError)
        # The victim was rolled back: its session can start fresh.
        s2.execute("BEGIN")
        s2.execute("COMMIT")
    assert db.query("SELECT val FROM kv WHERE id = 1") == [{"val": 100}]


def test_crossed_updates_raise_typed_deadlock(db):
    with db.session() as s1, db.session() as s2:
        s1.execute("BEGIN")
        s2.execute("BEGIN")
        s1.execute("UPDATE kv SET val = 101 WHERE id = 1")
        s2.execute("UPDATE kv SET val = 202 WHERE id = 2")

        results = {}

        def cross(session, key, stamp, slot):
            try:
                session.execute(
                    f"UPDATE kv SET val = {stamp} WHERE id = {key}"
                )
                session.execute("COMMIT")
                results[slot] = "committed"
            except (DeadlockError, TransactionConflictError) as error:
                results[slot] = error

        t1 = threading.Thread(
            target=cross, args=(s1, 2, 102, "s1"), daemon=True
        )
        t2 = threading.Thread(
            target=cross, args=(s2, 1, 201, "s2"), daemon=True
        )
        t1.start()
        t2.start()
        t1.join(timeout=15)
        t2.join(timeout=15)
        assert not t1.is_alive() and not t2.is_alive(), (
            "deadlock manifested as a hang"
        )
        outcomes = sorted(
            type(v).__name__ if isinstance(v, Exception) else v
            for v in results.values()
        )
        assert "DeadlockError" in outcomes, outcomes
        engine = db.database.concurrency
        assert engine.locks.deadlocks_detected >= 1
        # Exactly one side survived; the other was rolled back.
        survivors = [v for v in results.values() if v == "committed"]
        assert len(survivors) <= 1


# -- engine hygiene -----------------------------------------------------------


def test_sessions_open_returns_to_zero_and_chains_drain(db):
    s1 = db.session()
    s2 = db.session()
    engine = db.database.concurrency
    assert engine.sessions_open == 2
    s1.execute("BEGIN")
    s1.execute("UPDATE kv SET val = 1000 WHERE id = 1")
    s1.execute("COMMIT")
    s1.close()
    s2.close()
    assert engine.sessions_open == 0
    engine.vacuum()
    assert engine.versions.live_chains == 0


def test_session_close_rolls_back_open_transaction(db):
    s1 = db.session()
    s1.execute("BEGIN")
    s1.execute("UPDATE kv SET val = 77 WHERE id = 1")
    s1.close()
    assert db.query("SELECT val FROM kv WHERE id = 1") == [{"val": 10}]


# -- asyncio front end --------------------------------------------------------


def test_server_round_trip(db):
    async def scenario():
        from repro.concurrency.server import SessionClient

        async with db.serve() as server:
            client = await SessionClient.connect(server.host, server.port)
            got = await client.execute("SELECT val FROM kv WHERE id = 1")
            assert got["rows"] == [{"val": 10}]
            got = await client.execute(
                "UPDATE kv SET val = 15 WHERE id = 1"
            )
            assert got["rowcount"] == 1
            await client.execute("BEGIN")
            await client.execute("UPDATE kv SET val = 16 WHERE id = 1")
            await client.execute("ROLLBACK")
            got = await client.execute("SELECT val FROM kv WHERE id = 1")
            assert got["rows"] == [{"val": 15}]
            with pytest.raises(UnknownObjectError):
                await client.execute("SELECT * FROM no_such_table")
            await client.close()
        assert server.connections == 1
        assert server.statements_served >= 6

    asyncio.run(scenario())


def test_server_concurrent_connections_interleave(db):
    async def scenario():
        from repro.concurrency.server import SessionClient

        async with db.serve() as server:
            a = await SessionClient.connect(server.host, server.port)
            b = await SessionClient.connect(server.host, server.port)
            await a.execute("BEGIN")
            await a.execute("UPDATE kv SET val = 500 WHERE id = 2")
            got = await b.execute("SELECT val FROM kv WHERE id = 2")
            assert got["rows"] == [{"val": 20}]  # snapshot: no block
            await a.execute("COMMIT")
            got = await b.execute("SELECT val FROM kv WHERE id = 2")
            assert got["rows"] == [{"val": 500}]
            await a.close()
            await b.close()

    asyncio.run(scenario())

def test_lone_session_and_facade_stay_on_the_fast_path(tmp_path):
    """The facade's own session is not an open one: beside one
    ``db.session()`` its autocommit statements take no snapshot, version
    nothing and leave group commit dormant."""
    durable = SoftDB.open(tmp_path / "db")
    durable.execute("CREATE TABLE kv (id INT PRIMARY KEY, val INT)")
    engine = durable.database.concurrency
    with durable.session() as session:
        assert engine.sessions_open == 1
        for execute in (durable.execute, session.execute):
            execute("INSERT INTO kv VALUES (1, 10)")
            execute("UPDATE kv SET val = 11 WHERE id = 1")
            assert execute("SELECT val FROM kv").rows == [{"val": 11}]
            execute("DELETE FROM kv WHERE id = 1")
        assert engine.versions.versions_recorded == 0
        assert not engine.group_commit.active
    durable.close()

"""DML by key under snapshot isolation reads the index rid stream.

A watched session's UPDATE or DELETE locates its victims through
``ConcurrencyEngine.visible_index_rows`` as of the session's snapshot —
never through a heap scan.  These pin what that stream must see: not a
row another session inserted after the snapshot, a row another session
changed and committed after it (which then loses first-updater-wins), and
a row at the key the snapshot sees even while another session's
uncommitted update has moved it in the index.
"""

import threading

import pytest

from repro.api import SoftDB
from repro.concurrency.engine import ConcurrencyEngine
from repro.errors import TransactionConflictError


@pytest.fixture
def db():
    handle = SoftDB()
    handle.execute("CREATE TABLE kv (id INT PRIMARY KEY, val INT)")
    handle.database.insert_many("kv", [(key, key * 10) for key in range(500)])
    handle.runstats("kv")
    yield handle
    handle.close()


@pytest.fixture
def reads(monkeypatch):
    """How often DML located rows through each snapshot source."""
    counts = {"index": 0, "scan": 0}
    for name, method in (
        ("index", "visible_index_rows"),
        ("scan", "visible_scan"),
    ):
        original = getattr(ConcurrencyEngine, method)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(ConcurrencyEngine, method, counted)
    return counts


def _values(db, key):
    return db.query(f"SELECT val FROM kv WHERE id = {key}")


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


def test_row_inserted_after_the_snapshot_is_not_located(db, reads):
    with db.session() as s1, db.session() as s2:
        s1.execute("BEGIN")
        s2.execute("INSERT INTO kv VALUES (900, 9000)")
        assert s1.execute("UPDATE kv SET val = 1 WHERE id = 900") == 0
        assert s1.execute("DELETE FROM kv WHERE id = 900") == 0
        s1.execute("COMMIT")
    assert _values(db, 900) == [{"val": 9000}]
    assert reads == {"index": 2, "scan": 0}


@pytest.mark.parametrize(
    "statement",
    ["UPDATE kv SET val = 2 WHERE id = 7", "DELETE FROM kv WHERE id = 7"],
)
def test_row_committed_after_the_snapshot_loses_first_updater_wins(
    db, reads, statement
):
    with db.session() as s1, db.session() as s2:
        s1.execute("BEGIN")
        s2.execute("UPDATE kv SET val = 1 WHERE id = 7")
        with pytest.raises(TransactionConflictError):
            s1.execute(statement)
        assert not s1.in_transaction  # the victim was rolled back
    assert _values(db, 7) == [{"val": 1}]
    assert reads["index"] == 2 and reads["scan"] == 0


def test_key_moved_by_an_uncommitted_update_is_located_at_the_snapshot_key(
    db, reads
):
    with db.session() as s1, db.session() as s2:
        s1.execute("BEGIN")
        s1.execute("UPDATE kv SET id = 5000 WHERE id = 9")
        s2.execute("BEGIN")
        # The index now says 5000; s2's snapshot still sees key 9 there,
        # and nothing at 5000.
        assert s2.execute("DELETE FROM kv WHERE id = 5000") == 0
        thread, box = _in_thread(
            lambda: s2.execute("DELETE FROM kv WHERE id = 9")
        )
        thread.join(timeout=0.3)
        assert thread.is_alive(), "the located row should be lock-blocked"
        s1.execute("ROLLBACK")
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert box == {"value": 1}
        s2.execute("COMMIT")
    assert _values(db, 9) == [] and _values(db, 5000) == []
    assert reads["scan"] == 0

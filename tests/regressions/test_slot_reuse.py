"""Regressions: two sessions, one heap page, and whose slot is whose.

* A replica applies each transaction at its commit record.  When two
  sessions commit out of log order it places rows out of slot order:
  the later slot pads the earlier one with a 0-byte gap, and the
  earlier row must then take that gap.  It used to be refused as "does
  not fit the tombstone", which killed the replica.
* An insert must not take the slot a concurrent, still-uncommitted
  delete just freed.  It used to: the insert then waited on the
  deleter's row lock for its own new row, the deleter's rollback put
  its row back elsewhere, and recovery after a crash found two rows
  logged for one slot and refused to open the database.
"""

import threading

import pytest

from repro.api import SoftDB
from repro.replication import Replica, WalShipper

from tests.crash.test_crash_differential import fingerprint

PROBE = "SELECT id, v FROM t ORDER BY id"


@pytest.mark.replication
def test_replica_applies_commits_out_of_log_order(tmp_path):
    primary = SoftDB.open(tmp_path / "primary")
    primary.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20))")
    primary.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    shipper = WalShipper(primary)
    replica = Replica(tmp_path / "replica")
    shipper.attach(replica)
    s1, s2 = primary.session("s1"), primary.session("s2")
    s1.execute("BEGIN")
    s1.execute("INSERT INTO t VALUES (10, 'ten')")
    s2.execute("INSERT INTO t VALUES (11, 'eleven')")  # commits first
    s1.execute("COMMIT")
    assert shipper.pump_until_synced()
    assert not replica.dead
    assert [row["id"] for row in replica.query(PROBE)] == [1, 2, 10, 11]
    assert fingerprint(replica.db) == fingerprint(primary)
    s1.close()
    s2.close()
    replica.close()
    primary.close(checkpoint=False)


@pytest.mark.crash
def test_insert_skips_a_slot_freed_by_an_uncommitted_delete(tmp_path):
    db = SoftDB.open(tmp_path / "db")
    db.execute("CREATE TABLE t (id INT, v VARCHAR(20))")
    db.execute("INSERT INTO t VALUES (1, 'aaaa'), (2, 'bbbb')")
    s1, s2 = db.session("s1"), db.session("s2")
    s1.execute("BEGIN")
    s1.execute("DELETE FROM t WHERE id = 1")
    errors = []

    def insert():
        try:
            s2.execute("INSERT INTO t VALUES (3, 'cc')")
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    inserter = threading.Thread(target=insert)
    inserter.start()
    try:
        inserter.join(timeout=5.0)
        waited = inserter.is_alive()
    finally:
        s1.execute("ROLLBACK")
        inserter.join()
    assert not waited, "the insert waited on the uncommitted delete's lock"
    assert errors == []
    live = fingerprint(db)
    assert [row["id"] for row in db.query(PROBE)] == [1, 2, 3]
    s1.close()
    s2.close()
    db.close(checkpoint=False)

    recovered = SoftDB.open(tmp_path / "db")
    assert [row["id"] for row in recovered.query(PROBE)] == [1, 2, 3]
    assert fingerprint(recovered) == live
    recovered.close()

"""Regressions: a replica applies the shipped WAL in log order.

A replica used to buffer each transaction's records and apply them when
its commit arrived, so two interleaved transactions — A logs first, B
commits first — reached the replica in *commit* order while recovery
replays the same log in *log* order.  Three ways that forked the twin:

* A's soft-constraint snapshot, older than B's, landed after it: the
  replica's ``MinMaxSC`` said ``high=150`` while the row ``v=200``
  existed, so ``v > 150`` answered ``[]`` there;
* a ``DROP TABLE t`` committed while A held an uncommitted insert into
  ``t``: A's commit then redid that insert into a table the replica had
  already dropped, and the replica died with ``unknown table 't'``;
* two equal keys of a non-unique index landed in the opposite rid order.

The replica now feeds every record to the recovery redo stream, so in
each case it equals both the live primary and a recovered copy of the
primary's directory.

That stream once dropped a rolled-back transaction's records, so a
repair it made vanished on the replica and in recovery while a
committed row on the live primary still relied on it.  A rollback logs
its compensations under its own id, so redo now replays them at the
``abort`` and every node keeps what the live rollback kept.  It
applies them whole or not at all: a rolled-back insert whose undo is
still held behind an open writer never shows.

Promotion finishes that stream in place, so it also runs recovery's
integrity pass, and a replica's directory opened on its own stays a
read-only mirror.
"""

import shutil

import pytest

from repro.api import SoftDB
from repro.durability import codec
from repro.errors import ReadOnlyReplicaError, TransactionError
from repro.replication import Replica, WalShipper
from repro.softcon.maintenance import RepairPolicy
from repro.softcon.minmax import MinMaxSC
from tests.crash.test_crash_differential import fingerprint

pytestmark = pytest.mark.replication


def fleet(tmp_path, *statements):
    primary = SoftDB.open(tmp_path / "primary")
    for sql in statements:
        primary.execute(sql)
    shipper = WalShipper(primary)
    replica = Replica(tmp_path / "replica")
    shipper.attach(replica)
    return primary, shipper, replica


def recovered_copy(primary, tmp_path):
    """Recovery of the primary's directory as it stands now."""
    primary.durability.wal.flush()
    copy = tmp_path / "recovered"
    shutil.copytree(primary.durability.path, copy)
    return SoftDB.open(copy)


def interleave(primary, first, second):
    """A begins and writes first; B writes and commits; A commits."""
    a, b = primary.session(), primary.session()
    a.execute("BEGIN")
    a.execute(first)
    b.execute("BEGIN")
    b.execute(second)
    b.execute("COMMIT")
    a.execute("COMMIT")


def test_older_sc_snapshot_does_not_land_after_a_newer_one(tmp_path):
    primary, shipper, replica = fleet(
        tmp_path,
        "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
        "INSERT INTO t VALUES (1, 10)",
    )
    primary.add_soft_constraint(
        MinMaxSC("t_v", "t", "v", 0, 100, 1.0), policy=RepairPolicy()
    )
    # Each insert breaches the band; the repair widens it and logs a
    # snapshot tagged with the inserting transaction.
    interleave(
        primary,
        "INSERT INTO t VALUES (150, 150)",
        "INSERT INTO t VALUES (200, 200)",
    )
    assert shipper.pump_until_synced()
    recovered = recovered_copy(primary, tmp_path)

    def state(db):
        return (
            codec.encode_soft_constraint(db.registry.get("t_v")),
            codec.encode_currency(db.registry._currency.get("t_v")),
        )

    assert state(replica.db) == state(primary) == state(recovered)
    assert state(replica.db)[0]["high"] == 200
    probe = "SELECT id FROM t WHERE v > 150"
    assert replica.query(probe) == [{"id": 200}]
    assert primary.query(probe) == recovered.query(probe) == [{"id": 200}]


def test_drop_table_behind_an_open_insert_does_not_kill_the_replica(
    tmp_path,
):
    primary, shipper, replica = fleet(
        tmp_path,
        "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
        "CREATE TABLE u (id INT PRIMARY KEY)",
    )
    writer, dropper = primary.session(), primary.session()
    writer.execute("BEGIN")
    writer.execute("INSERT INTO t VALUES (1, 1)")
    dropper.execute("DROP TABLE t")
    writer.execute("COMMIT")
    assert shipper.pump_until_synced()
    assert not replica.dead
    recovered = recovered_copy(primary, tmp_path)
    catalog = replica.db.database.catalog
    assert sorted(catalog.table_names()) == ["u"]
    assert sorted(catalog.table_names()) == sorted(
        recovered.database.catalog.table_names()
    )
    assert fingerprint(replica.db) == fingerprint(recovered)


def test_equal_keys_of_a_non_unique_index_keep_log_order(tmp_path):
    primary, shipper, replica = fleet(
        tmp_path,
        "CREATE TABLE t (id INT PRIMARY KEY, k INT)",
        "CREATE INDEX ix_k ON t (k)",
    )
    interleave(
        primary, "INSERT INTO t VALUES (1, 7)", "INSERT INTO t VALUES (2, 7)"
    )
    assert shipper.pump_until_synced()
    recovered = recovered_copy(primary, tmp_path)

    def image(db):
        return codec.encode_index(db.database.catalog.index("ix_k"))

    assert image(replica.db) == image(primary) == image(recovered)


def test_promotion_repairs_a_soft_constraint_the_dropped_tail_widened(
    tmp_path,
):
    """Promotion drops the dead primary's unresolved transactions.  When
    one of them carried the repair that a committed row relies on, the
    promoted primary must re-validate the constraint as recovery does,
    or it answers from a band that excludes a row it holds."""
    primary, shipper, replica = fleet(
        tmp_path,
        "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
        "INSERT INTO t VALUES (1, 10)",
    )
    primary.add_soft_constraint(
        MinMaxSC("t_v", "t", "v", 0, 100, 1.0), policy=RepairPolicy()
    )
    widener, writer = primary.session(), primary.session()
    widener.execute("BEGIN")
    # The repair widens the band to 150, logged under the open txn.
    widener.execute("INSERT INTO t VALUES (2, 150)")
    writer.execute("INSERT INTO t VALUES (3, 150)")
    assert shipper.pump_until_synced()
    # The primary dies here; its open transaction never resolves.
    promoted = replica.promote(1, None)
    restarted = tmp_path / "restarted"
    shutil.copytree(promoted.durability.path, restarted)
    recovered = SoftDB.open(restarted)
    probe = "SELECT id FROM t WHERE v > 120"
    assert promoted.query(probe) == recovered.query(probe) == [{"id": 3}]
    assert promoted.durability.last_recovery["asc_actions"]
    assert codec.encode_soft_constraint(
        promoted.registry.get("t_v")
    ) == codec.encode_soft_constraint(recovered.registry.get("t_v"))
    assert fingerprint(promoted) == fingerprint(recovered)


def test_a_rolled_back_repair_stays_under_the_row_that_relies_on_it(
    tmp_path,
):
    """A's repair widens the band, B's committed row passes the widened
    check, then A rolls back.  The live primary keeps the widening (a
    band only ever widens), and so must every node that replays the
    log: A's snapshot and compensations apply at its ``abort``."""
    primary, shipper, replica = fleet(
        tmp_path,
        "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
        "INSERT INTO t VALUES (1, 10)",
    )
    primary.add_soft_constraint(
        MinMaxSC("t_v", "t", "v", 0, 100, 1.0), policy=RepairPolicy()
    )
    a, b = primary.session(), primary.session()
    a.execute("BEGIN")
    a.execute("INSERT INTO t VALUES (2, 150)")
    b.execute("INSERT INTO t VALUES (3, 150)")
    a.execute("ROLLBACK")
    assert shipper.pump_until_synced()
    probe = "SELECT id FROM t WHERE v > 120"
    assert primary.query(probe) == replica.query(probe) == [{"id": 3}]
    recovered = recovered_copy(primary, tmp_path)
    assert recovered.durability.last_recovery["asc_actions"] == []
    assert recovered.query(probe) == [{"id": 3}]
    assert fingerprint(replica.db) == fingerprint(primary)
    assert fingerprint(recovered) == fingerprint(primary)


def test_a_rollback_behind_an_open_writer_never_shows_its_rows(tmp_path):
    """A's compensating delete is logged behind X's open insert, so the
    hold cannot reach it.  A's insert must wait with it: applying it at
    A's ``abort`` would show a row the primary never committed."""
    primary, shipper, replica = fleet(
        tmp_path,
        "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
        "INSERT INTO t VALUES (1, 10)",
    )
    a, x = primary.session(), primary.session()
    a.execute("BEGIN")
    a.execute("INSERT INTO t VALUES (2, 20)")
    x.execute("BEGIN")
    x.execute("INSERT INTO t VALUES (5, 50)")
    a.execute("ROLLBACK")
    shipper.pump_until_synced()
    probe = "SELECT id FROM t ORDER BY id"
    assert replica.query(probe) == [{"id": 1}]
    x.execute("COMMIT")
    assert shipper.pump_until_synced()
    assert primary.query(probe) == replica.query(probe)
    assert replica.query(probe) == [{"id": 1}, {"id": 5}]
    assert fingerprint(replica.db) == fingerprint(primary)


def test_opening_a_mirror_directly_refuses_local_writes(tmp_path):
    """A replica's directory holding an open transaction recovers as a
    mirror (the hold kept); a local write there would bury its own
    commits behind that transaction, so only promotion makes it
    writable."""
    primary, shipper, replica = fleet(
        tmp_path,
        "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
        "INSERT INTO t VALUES (1, 10)",
    )
    writer, committer = primary.session(), primary.session()
    writer.execute("BEGIN")
    writer.execute("INSERT INTO t VALUES (2, 20)")
    committer.execute("INSERT INTO t VALUES (3, 30)")
    assert shipper.pump_until_synced()
    mirrored = replica.db.durability.wal.offset()
    replica.close()
    mirror = SoftDB.open(replica.path)
    assert mirror.durability.redo.held > 0
    assert mirror.query("SELECT id FROM t") == [{"id": 1}]
    for sql in (
        "INSERT INTO t VALUES (4, 40)",
        "BEGIN",
        "CREATE TABLE u (id INT PRIMARY KEY)",
    ):
        with pytest.raises(ReadOnlyReplicaError):
            mirror.execute(sql)
    assert mirror.database.catalog.table_names() == ["t"]
    assert mirror.durability.wal.offset() == mirrored
    with pytest.raises(TransactionError):
        mirror.checkpoint()
    mirror.close(checkpoint=False)
    promoted = Replica(replica.path)
    promoted.restart()
    db = promoted.promote(1, None)
    db.execute("INSERT INTO t VALUES (4, 40)")
    assert db.query("SELECT id FROM t ORDER BY id") == [
        {"id": 1},
        {"id": 3},
        {"id": 4},
    ]

"""Unit tests for checkpoints and the recovery path: atomic install,
CRC-guarded load, winner/loser transaction replay, storage verification
with index rebuild/quarantine, and post-recovery ASC re-validation."""

import pytest

from repro.api import SoftDB
from repro.durability.checkpoint import load_checkpoint, write_checkpoint
from repro.errors import (
    IndexCorruptionError,
    RollbackError,
    TransactionError,
    WALCorruptionError,
)
from repro.resilience.faults import FaultInjector, SimulatedCrash
from repro.softcon.base import SCState
from repro.softcon.maintenance import RepairPolicy
from repro.softcon.minmax import MinMaxSC


def build_durable(path, **kwargs) -> SoftDB:
    db = SoftDB.open(path, **kwargs)
    db.execute("CREATE TABLE emp (id INT PRIMARY KEY, salary INT)")
    db.execute(
        "INSERT INTO emp VALUES "
        + ", ".join(f"({n}, {1000 + n * 10})" for n in range(50))
    )
    db.execute("CREATE INDEX ix_emp_salary ON emp (salary)")
    return db


def rows_of(db: SoftDB):
    return sorted(
        (row["id"], row["salary"])
        for row in db.query("SELECT id, salary FROM emp")
    )


# -- checkpoint file format --------------------------------------------------


def test_checkpoint_write_load_roundtrip(tmp_path):
    payload = {"wal_offset": 123, "tables": [], "sequence": 1}
    target = tmp_path / "checkpoint.img"
    write_checkpoint(target, payload)
    assert load_checkpoint(target) == payload


def test_checkpoint_load_rejects_corruption(tmp_path):
    target = tmp_path / "checkpoint.img"
    write_checkpoint(target, {"wal_offset": 0})
    data = bytearray(target.read_bytes())
    data[-1] ^= 0xFF
    target.write_bytes(bytes(data))
    with pytest.raises(WALCorruptionError):
        load_checkpoint(target)


def test_checkpoint_crash_leaves_previous_image_installed(tmp_path):
    target = tmp_path / "checkpoint.img"
    write_checkpoint(target, {"wal_offset": 1, "generation": "old"})
    crash_points = FaultInjector(seed=1).add(
        "checkpoint_write", "crash", at_visit=1
    )
    with pytest.raises(SimulatedCrash):
        write_checkpoint(
            target, {"wal_offset": 2, "generation": "new"}, crash_points
        )
    # The tmp file may linger, but the installed image is the old one.
    assert load_checkpoint(target)["generation"] == "old"


# -- recovery: transactions --------------------------------------------------


def test_uncommitted_records_are_skipped(tmp_path):
    from repro.engine.row import RowId

    db = build_durable(tmp_path)
    manager = db.durability
    before = rows_of(db)
    # Forge a statement that crashed before its commit record: tagged
    # records with no commit must be invisible to recovery.
    txn_id = manager._begin()
    manager.log_insert("emp", RowId(99, 0), (999, 999))
    manager._txn_stack.pop()
    manager._flush_run()
    manager.wal.flush()
    assert txn_id is not None
    recovered = SoftDB.open(tmp_path)
    assert recovered.durability.last_recovery["skipped"] == 1
    assert rows_of(recovered) == before


def test_explicit_transaction_rollback_recovers_the_live_fingerprint(
    tmp_path,
):
    """Redo replays the rollback's logged compensations, so recovery
    rebuilds the live pages (freed slots included) and index order."""
    from repro.engine.transactions import Transaction
    from tests.crash.test_crash_differential import fingerprint

    db = build_durable(tmp_path)
    before = rows_of(db)
    rids = {row[0]: rid for rid, row in db.database.table("emp").scan()}
    txn = Transaction(db.database)
    txn.insert("emp", (500, 9000))
    txn.insert("emp", (501, 9100))
    txn.update("emp", rids[7], (7, 1075))
    txn.delete("emp", rids[8])
    txn.rollback()
    assert rows_of(db) == before
    recovered = SoftDB.open(tmp_path)
    assert rows_of(recovered) == before
    assert fingerprint(recovered) == fingerprint(db)


def test_a_failed_undo_recovers_as_the_live_database_kept_it(
    tmp_path, monkeypatch
):
    """A failing undo entry logs no compensation, but the ``abort`` is
    logged: redo keeps the un-undone change, as the live database did."""
    from repro.engine.transactions import Transaction
    from tests.crash.test_crash_differential import fingerprint

    db = build_durable(tmp_path)
    txn = Transaction(db.database)
    txn.insert("emp", (500, 9000))
    kept = txn.insert("emp", (501, 9100))
    original = db.database.delete_row

    def flaky_delete(table_name, row_id):
        if row_id == kept:
            raise RuntimeError("storage fault during undo")
        return original(table_name, row_id)

    monkeypatch.setattr(db.database, "delete_row", flaky_delete)
    with pytest.raises(RollbackError):
        txn.rollback()
    monkeypatch.undo()
    ids = {row[0] for row in rows_of(db)}
    assert 501 in ids and 500 not in ids
    recovered = SoftDB.open(tmp_path)
    assert rows_of(recovered) == rows_of(db)
    assert fingerprint(recovered) == fingerprint(db)


def test_checkpoint_refuses_open_transaction(tmp_path):
    from repro.engine.transactions import Transaction

    db = build_durable(tmp_path)
    txn = Transaction(db.database)
    txn.insert("emp", (500, 9000))
    with pytest.raises(TransactionError):
        db.checkpoint()
    txn.commit()
    assert db.checkpoint() >= 1


# -- recovery: storage verification ------------------------------------------


def test_recovery_rebuilds_mismatching_index(tmp_path):
    db = build_durable(tmp_path)
    db.close()
    recovered = SoftDB.open(tmp_path)
    # Damage the restored index in memory and re-run verification: the
    # heap cross-check must notice and rebuild it.
    index = recovered.database.catalog.index("ix_emp_salary")
    index._keys.pop(3)
    index._rids.pop(3)
    index.checksum = index.compute_checksum()
    summary = {"indexes_rebuilt": [], "indexes_quarantined": [], "warnings": []}
    recovered.durability._verify_storage(summary)
    assert summary["indexes_rebuilt"] == ["ix_emp_salary"]
    assert len(index._keys) == 50
    index.verify()


def test_recovery_quarantines_index_when_rebuild_fails(tmp_path, monkeypatch):
    db = build_durable(tmp_path)
    db.close()
    recovered = SoftDB.open(tmp_path)
    index = recovered.database.catalog.index("ix_emp_salary")
    index._keys.pop(0)
    index._rids.pop(0)
    index.checksum = index.compute_checksum()

    def failing_rebuild(name):
        raise IndexCorruptionError("rebuild failed too", index_name=name)

    monkeypatch.setattr(recovered.database, "rebuild_index", failing_rebuild)
    summary = {"indexes_rebuilt": [], "indexes_quarantined": [], "warnings": []}
    recovered.durability._verify_storage(summary)
    assert summary["indexes_quarantined"] == ["ix_emp_salary"]
    assert index.quarantined


# -- recovery: ASC re-validation ---------------------------------------------


def test_recovered_asc_contradicting_data_is_overturned(tmp_path):
    db = build_durable(tmp_path)
    # Adopt (recovery-style, no checks) an ACTIVE absolute ASC whose
    # bounds the actual data violates, then run the re-validation pass.
    wrong = MinMaxSC("emp_salary_range", "emp", "salary", 0, 1100, 1.0)
    wrong.state = SCState.ACTIVE
    db.registry.adopt(wrong)
    summary = {"asc_actions": [], "warnings": []}
    db.durability._revalidate_soft_constraints(summary)
    assert summary["asc_actions"], "re-validation must have acted"
    assert not wrong.usable_in_rewrite
    # DropPolicy (the default) overturns: ACTIVE -> VIOLATED.
    assert wrong.state is SCState.VIOLATED


def test_recovered_asc_is_repaired_into_consistency(tmp_path):
    db = build_durable(tmp_path)
    wrong = MinMaxSC("emp_salary_range", "emp", "salary", 0, 1100, 1.0)
    wrong.state = SCState.ACTIVE
    db.registry.adopt(wrong, policy=RepairPolicy())
    summary = {"asc_actions": [], "warnings": []}
    db.durability._revalidate_soft_constraints(summary)
    # RepairPolicy widens: the constraint stays absolute and now covers
    # every stored salary, so a second pass finds nothing.
    assert wrong.state is SCState.ACTIVE
    assert wrong.high >= 1000 + 49 * 10
    again = {"asc_actions": [], "warnings": []}
    db.durability._revalidate_soft_constraints(again)
    assert again["asc_actions"] == []


def test_consistent_asc_survives_revalidation_untouched(tmp_path):
    db = build_durable(tmp_path)
    db.add_soft_constraint(
        MinMaxSC("emp_salary_range", "emp", "salary", 0, 10_000, 1.0)
    )
    db.close()
    recovered = SoftDB.open(tmp_path)
    sc = recovered.registry.get("emp_salary_range")
    assert sc.state is SCState.ACTIVE
    assert recovered.durability.last_recovery["asc_actions"] == []
    assert (sc.low, sc.high) == (0, 10_000)


# -- recovery: session state --------------------------------------------------


#: A store state as checkpoints written while the execution-feedback
#: store existed carried it under the payload's ``"feedback"`` key.
_OBSERVATION = {
    "count": 3,
    "value": 29.0,
    "last_estimated": 4.0,
    "last_actual": 29.0,
    "qerror": {"count": 3, "max_qerror": 7.25, "total": 21.75},
}
_STORE_STATE = {
    "alpha": 0.5,
    "scans": [[["emp", "salary > 1200"], _OBSERVATION]],
    "index_ranges": [],
    "joins": [],
    "join_tables": [],
    "groups": [],
    "base_rows": [["emp", _OBSERVATION]],
    "guard_trips_by_table": {"emp": 1},
    "guard_trips_by_kind": {"rows": 1},
    "counters": {"guard_trips": 1, "observations": 6, "harvests": 3},
}


@pytest.mark.parametrize("feedback", [None, _STORE_STATE])
def test_checkpoint_with_a_feedback_key_still_restores(
    tmp_path, monkeypatch, feedback
):
    """Every checkpoint written before the feedback store was removed has
    a ``"feedback"`` key (null unless collection was on).  Restoring one
    ignores it: the database matches a never-checkpointed twin's."""

    def stream(db):
        db.runstats_all()
        db.add_soft_constraint(
            MinMaxSC("emp_salary_range", "emp", "salary", 1000, 1490)
        )
        db.execute("UPDATE emp SET salary = salary + 5 WHERE id < 10")

    twin = build_durable(tmp_path / "twin")
    stream(twin)
    twin.close(checkpoint=False)

    db = build_durable(tmp_path / "old")
    stream(db)
    manager = db.durability
    build_payload = manager._build_payload

    def with_feedback_key():
        payload = build_payload()
        assert "feedback" not in payload
        return {**payload, "feedback": feedback}

    monkeypatch.setattr(manager, "_build_payload", with_feedback_key)
    db.checkpoint()
    db.close(checkpoint=False)
    assert "feedback" in load_checkpoint(manager.checkpoint_path)

    recovered = SoftDB.open(tmp_path / "old")
    reference = SoftDB.open(tmp_path / "twin")
    assert recovered.durability.last_recovery["warnings"] == []
    assert rows_of(recovered) == rows_of(reference)
    sc, twin_sc = (
        d.registry.get("emp_salary_range") for d in (recovered, reference)
    )
    assert (sc.state, sc.confidence, sc.low, sc.high) == (
        twin_sc.state, twin_sc.confidence, twin_sc.low, twin_sc.high
    )
    # Same plans and estimates; the ``expressions:`` line counts the
    # process-wide compile cache, so it is left out.
    sql = "SELECT id FROM emp WHERE salary > 1200"
    plan, twin_plan = (
        [
            line
            for line in d.explain(sql).splitlines()
            if not line.startswith("expressions:")
        ]
        for d in (recovered, reference)
    )
    assert plan == twin_plan


def test_constraint_sequence_survives_reopen(tmp_path):
    db = SoftDB.open(tmp_path)
    db.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT UNIQUE)")
    sequence = db._constraint_sequence
    assert sequence >= 2
    db.close()
    recovered = SoftDB.open(tmp_path)
    assert recovered._constraint_sequence == sequence


def test_exception_table_binding_survives_crash(tmp_path):
    db = build_durable(tmp_path)
    db.execute(
        "CREATE SUMMARY TABLE high_paid AS "
        "(SELECT * FROM emp WHERE salary > 1400)"
    )
    exceptions_before = sorted(
        db.database.table("high_paid").scan_rows()
    )
    # No close(): simulate a crash and recover from the WAL alone.
    recovered = SoftDB.open(tmp_path)
    assert "high_paid" in recovered.database.catalog.summary_tables()
    assert sorted(
        recovered.database.table("high_paid").scan_rows()
    ) == exceptions_before
    # The binding is live again: new violations keep materializing.
    # (The AST's rule is NOT (salary > 1400); a 9999 salary violates it
    # and must land in the recovered exception table.)
    recovered.execute("INSERT INTO emp VALUES (900, 9999)")
    assert (900, 9999) in set(
        recovered.database.table("high_paid").scan_rows()
    )


def test_checkpoint_sequence_survives_a_compacting_restart(tmp_path):
    """A reopened directory numbers its next checkpoint past both the
    restored image and the epoch record a compaction left at the log's
    head.  Reusing the compacted image's number made the next recovery
    take the new image's log for the compacted one and replay, from the
    marker, records the new image already holds."""
    db = build_durable(tmp_path)
    assert db.checkpoint(compact=True) == 1
    db.execute("INSERT INTO emp VALUES (100, 5000)")
    db.close(checkpoint=False)

    db = SoftDB.open(tmp_path)
    assert db.checkpoint() == 2
    db.execute("INSERT INTO emp VALUES (101, 5100)")
    expected = rows_of(db)
    db.close(checkpoint=False)

    recovered = SoftDB.open(tmp_path)
    assert rows_of(recovered) == expected
    assert recovered.durability.last_recovery["replayed"] == 1
    assert recovered.checkpoint(compact=True) == 3
    recovered.close(checkpoint=False)
    assert rows_of(SoftDB.open(tmp_path)) == expected

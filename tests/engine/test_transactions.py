"""Tests for transactions and rollback."""

import pytest

from repro.engine.database import ChangeEvent
from repro.engine.page import Page
from repro.engine.transactions import Transaction
from repro.errors import RollbackError, TransactionError


class TestCommitRollback:
    def test_commit_keeps_changes(self, people_database):
        with Transaction(people_database) as txn:
            txn.insert("city", [9, "hamilton"])
        assert people_database.table("city").row_count == 4

    def test_rollback_undoes_insert(self, people_database):
        txn = Transaction(people_database)
        txn.insert("city", [9, "hamilton"])
        txn.rollback()
        assert people_database.table("city").row_count == 3

    def test_rollback_undoes_delete(self, people_database):
        txn = Transaction(people_database)
        (rid,) = people_database.lookup_key("city", ["id"], [2])
        txn.delete("city", rid)
        txn.rollback()
        names = {row["name"] for row in people_database.scan_dicts("city")}
        assert "ottawa" in names

    def test_rollback_undoes_update(self, people_database):
        txn = Transaction(people_database)
        (rid,) = people_database.lookup_key("city", ["id"], [1])
        txn.update("city", rid, [1, "tdot"])
        txn.rollback()
        names = {row["name"] for row in people_database.scan_dicts("city")}
        assert "toronto" in names and "tdot" not in names

    def test_rollback_is_lifo(self, people_database):
        txn = Transaction(people_database)
        rid = txn.insert("city", [9, "a"])
        txn.update("city", rid, [9, "b"])
        txn.delete("city", rid)
        txn.rollback()
        assert people_database.table("city").row_count == 3

    def test_exception_in_context_rolls_back(self, people_database):
        with pytest.raises(RuntimeError):
            with Transaction(people_database) as txn:
                txn.insert("city", [9, "x"])
                raise RuntimeError("boom")
        assert people_database.table("city").row_count == 3


class TestExceptionSafeRollback:
    def test_failing_undo_entry_does_not_abandon_the_rest(
        self, people_database, monkeypatch
    ):
        txn = Transaction(people_database)
        first = txn.insert("city", [8, "first"])
        second = txn.insert("city", [9, "second"])
        # Undo runs newest-first, so `second` is undone first; make exactly
        # that undo fail and prove `first` is still undone afterwards.
        original = people_database.delete_row

        def flaky_delete(table_name, row_id):
            if row_id == second:
                raise RuntimeError("storage fault during undo")
            return original(table_name, row_id)

        monkeypatch.setattr(people_database, "delete_row", flaky_delete)
        with pytest.raises(RollbackError) as info:
            txn.rollback()
        assert len(info.value.failures) == 1
        assert isinstance(info.value.failures[0], RuntimeError)
        # The surviving entries were applied and the txn deactivated.
        ids = {row["id"] for row in people_database.scan_dicts("city")}
        assert 8 not in ids
        assert not txn.is_active
        with pytest.raises(TransactionError):
            txn.rollback()

    def test_all_failures_aggregated(self, people_database, monkeypatch):
        txn = Transaction(people_database)
        txn.insert("city", [8, "a"])
        txn.insert("city", [9, "b"])

        def always_fails(table_name, row_id):
            raise RuntimeError("dead storage")

        monkeypatch.setattr(people_database, "delete_row", always_fails)
        with pytest.raises(RollbackError) as info:
            txn.rollback()
        assert len(info.value.failures) == 2
        assert not txn.is_active

    def test_clean_rollback_raises_nothing(self, people_database):
        txn = Transaction(people_database)
        txn.insert("city", [8, "a"])
        txn.rollback()  # no RollbackError on the happy path
        assert people_database.table("city").row_count == 3


def rows_by_rid(database, table_name="city"):
    return dict(database.table(table_name).scan())


class TestCompensatingEvents:
    """Rollback must publish the exact inverse of every change, newest
    first, so observers (the soft-constraint manager) unwind in lockstep
    with the data, and leave every row at its pre-transaction rid."""

    def test_inverse_events_in_strict_reverse_order(self, people_database):
        before = rows_by_rid(people_database)
        txn = Transaction(people_database)
        rid = txn.insert("city", [9, "x"])
        rid = txn.update("city", rid, [9, "y"])
        (ottawa,) = people_database.lookup_key("city", ["id"], [2])
        txn.delete("city", ottawa)
        txn.update("city", rid, [9, "z"])

        events = []
        people_database.add_observer(events.append)
        try:
            txn.rollback()
        finally:
            people_database.remove_observer(events.append)

        assert events == [
            ChangeEvent("update", "city", (9, "z"), (9, "y")),
            ChangeEvent("insert", "city", None, (2, "ottawa")),
            ChangeEvent("update", "city", (9, "y"), (9, "x")),
            ChangeEvent("delete", "city", (9, "x"), None),
        ]
        names = {row["name"] for row in people_database.scan_dicts("city")}
        assert names == {"toronto", "ottawa", "montreal"}
        assert rows_by_rid(people_database) == before

    def test_forwarded_update_chain_undone_in_place(
        self, people_database, monkeypatch
    ):
        # Force every update down the forwarding path (delete +
        # re-insert at a new rid), as a full page would: each undo step
        # moves the row back to the rid it had before that update.
        monkeypatch.setattr(
            Page, "can_update", lambda self, slot_no, row_bytes: False
        )
        before = rows_by_rid(people_database)
        txn = Transaction(people_database)
        rid = txn.insert("city", [9, "a"])
        rid = txn.update("city", rid, [9, "bb"])
        rid = txn.update("city", rid, [9, "ccc"])

        events = []
        people_database.add_observer(events.append)
        try:
            txn.rollback()
        finally:
            people_database.remove_observer(events.append)

        assert events == [
            ChangeEvent("update", "city", (9, "ccc"), (9, "bb")),
            ChangeEvent("update", "city", (9, "bb"), (9, "a")),
            ChangeEvent("delete", "city", (9, "a"), None),
        ]
        # No leaked copy at any of the stale rids.
        assert people_database.table("city").row_count == 3
        ids = {row["id"] for row in people_database.scan_dicts("city")}
        assert 9 not in ids
        assert rows_by_rid(people_database) == before

    def test_interleaved_delete_update_on_one_row(
        self, people_database, monkeypatch
    ):
        monkeypatch.setattr(
            Page, "can_update", lambda self, slot_no, row_bytes: False
        )
        before = sorted(
            (row["id"], row["name"])
            for row in people_database.scan_dicts("city")
        )
        placed = rows_by_rid(people_database)
        txn = Transaction(people_database)
        (rid,) = people_database.lookup_key("city", ["id"], [3])
        rid = txn.update("city", rid, [3, "mtl"])
        txn.delete("city", rid)
        rid = txn.insert("city", [3, "back"])
        txn.update("city", rid, [3, "again"])

        events = []
        people_database.add_observer(events.append)
        try:
            txn.rollback()
        finally:
            people_database.remove_observer(events.append)

        assert [e.kind for e in events] == [
            "update",  # again -> back
            "delete",  # undo the re-insert
            "insert",  # undo the delete: montreal's mtl image returns
            "update",  # mtl -> montreal
        ]
        after = sorted(
            (row["id"], row["name"])
            for row in people_database.scan_dicts("city")
        )
        assert after == before
        assert rows_by_rid(people_database) == placed


class TestStateMachine:
    def test_commit_twice_rejected(self, people_database):
        txn = Transaction(people_database)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_write_after_commit_rejected(self, people_database):
        txn = Transaction(people_database)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.insert("city", [9, "x"])

    def test_rollback_after_commit_rejected(self, people_database):
        txn = Transaction(people_database)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.rollback()

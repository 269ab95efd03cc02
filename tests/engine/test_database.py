"""Tests for the database facade: DML, lookups, change events."""

import pytest

from repro import dml
from repro.engine.database import ChangeEvent, Database
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INTEGER, VARCHAR
from repro.optimizer.planner import Optimizer, PlanCache
from repro.sql.parser import parse_statement


class TestDML:
    def test_insert_mapping(self, people_database):
        people_database.insert_mapping("person", {"id": 9, "name": "zed"})
        rows = list(people_database.scan_dicts("person"))
        assert rows[-1] == {
            "id": 9,
            "name": "zed",
            "age": None,
            "city_id": None,
        }

    def test_delete_where(self, people_database):
        deleted = dml.apply_delete(
            PlanCache(Optimizer(people_database)),
            parse_statement("DELETE FROM person WHERE age > 35"),
        )
        assert deleted == 2
        assert people_database.table("person").row_count == 3

    def test_update_where(self, people_database):
        updated = dml.apply_update(
            PlanCache(Optimizer(people_database)),
            parse_statement(
                "UPDATE person SET age = age + 1 WHERE name = 'ann'"
            ),
        )
        assert updated == 1
        ann = next(
            row
            for row in people_database.scan_dicts("person")
            if row["name"] == "ann"
        )
        assert ann["age"] == 35

    def test_update_row_maintains_indexes(self, people_database):
        people_database.create_index("ix_age", "person", ["age"])
        (rid,) = people_database.lookup_key("person", ["age"], [34])
        people_database.update_row("person", rid, [1, "ann", 99, 1])
        assert people_database.lookup_key("person", ["age"], [34]) == []
        assert len(people_database.lookup_key("person", ["age"], [99])) == 1


class TestLookup:
    def test_lookup_without_index_scans(self, people_database):
        rids = people_database.lookup_key("person", ["city_id"], [1])
        assert len(rids) == 2

    def test_lookup_with_index_probes(self, people_database):
        people_database.create_index("ix_city", "person", ["city_id"])
        people_database.counters.reset()
        rids = people_database.lookup_key("person", ["city_id"], [1])
        assert len(rids) == 2
        # An index probe touches far fewer pages than a scan would.
        assert people_database.counters.page_reads <= 3

    def test_lookup_via_composite_prefix(self, people_database):
        people_database.create_index("ix2", "person", ["city_id", "age"])
        rids = people_database.lookup_key("person", ["city_id"], [1])
        assert len(rids) == 2

    def test_fetch_rows(self, people_database):
        rids = people_database.lookup_key("person", ["city_id"], [1])
        rows = people_database.fetch_rows("person", rids)
        assert {row[1] for row in rows} == {"ann", "bob"}


class TestCreateIndex:
    def test_index_backfilled_from_existing_data(self, people_database):
        index = people_database.create_index("ix_name", "person", ["name"])
        assert len(index) == 5

    def test_null_keys_skipped_on_backfill(self, people_database):
        index = people_database.create_index("ix_age", "person", ["age"])
        assert len(index) == 4  # dan has NULL age


class TestChangeEvents:
    def test_insert_event(self, people_database):
        events = []
        people_database.add_observer(events.append)
        people_database.insert("city", [9, "x"])
        assert events == [
            ChangeEvent("insert", "city", None, (9, "x"))
        ]

    def test_delete_event_carries_old_row(self, people_database):
        events = []
        people_database.add_observer(events.append)
        (rid,) = people_database.lookup_key("city", ["id"], [3])
        people_database.delete_row("city", rid)
        assert events[0].kind == "delete"
        assert events[0].old_row == (3, "montreal")

    def test_update_event_carries_both_images(self, people_database):
        events = []
        people_database.add_observer(events.append)
        (rid,) = people_database.lookup_key("city", ["id"], [1])
        people_database.update_row("city", rid, [1, "tdot"])
        assert events[0].old_row == (1, "toronto")
        assert events[0].new_row == (1, "tdot")

    def test_remove_observer(self, people_database):
        events = []
        people_database.add_observer(events.append)
        people_database.remove_observer(events.append)
        people_database.insert("city", [9, "x"])
        assert events == []

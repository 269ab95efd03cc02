"""Tests for heap tables."""

import pytest

from repro.engine.page import IOCounters
from repro.engine.row import RowId
from repro.engine.schema import Column, TableSchema
from repro.engine.table import HeapTable
from repro.engine.types import INTEGER, VARCHAR
from repro.errors import StorageError


@pytest.fixture
def table() -> HeapTable:
    schema = TableSchema(
        "t", [Column("id", INTEGER), Column("body", VARCHAR(3000))]
    )
    return HeapTable(schema)


class TestInsertFetch:
    def test_insert_and_fetch(self, table):
        row_id = table.insert([1, "hello"])
        assert table.fetch(row_id) == (1, "hello")

    def test_row_count_tracks_live_rows(self, table):
        ids = table.insert_many([[n, "x"] for n in range(10)])
        assert table.row_count == 10
        table.delete(ids[0])
        assert table.row_count == 9

    def test_rows_span_pages(self, table):
        # ~1KB rows: four per page, so 20 rows need several pages.
        table.insert_many([[n, "x" * 1000] for n in range(20)])
        assert table.page_count >= 5

    def test_fetch_deleted_raises(self, table):
        row_id = table.insert([1, "x"])
        table.delete(row_id)
        with pytest.raises(StorageError):
            table.fetch(row_id)

    def test_fetch_if_live_returns_none_for_deleted(self, table):
        row_id = table.insert([1, "x"])
        table.delete(row_id)
        assert table.fetch_if_live(row_id) is None

    def test_validation_applied_on_insert(self, table):
        from repro.errors import TypeMismatchError

        with pytest.raises(TypeMismatchError):
            table.insert(["not-an-int", "x"])


class TestDeleteUpdate:
    def test_delete_returns_old_image(self, table):
        row_id = table.insert([1, "old"])
        assert table.delete(row_id) == (1, "old")

    def test_double_delete_raises(self, table):
        row_id = table.insert([1, "x"])
        table.delete(row_id)
        with pytest.raises(StorageError):
            table.delete(row_id)

    def test_update_in_place(self, table):
        row_id = table.insert([1, "aaaa"])
        new_id, old = table.update(row_id, [1, "bb"])
        assert new_id == row_id
        assert old == (1, "aaaa")
        assert table.fetch(new_id) == (1, "bb")

    def test_update_moves_row_when_page_full(self, table):
        # Fill the first page, then grow the first row so it must move.
        ids = table.insert_many([[n, "x" * 1000] for n in range(4)])
        new_id, _ = table.update(ids[0], [0, "y" * 2500])
        assert new_id != ids[0]
        assert table.fetch(new_id) == (0, "y" * 2500)
        assert table.row_count == 4

    def test_deleted_space_reused(self, table):
        ids = table.insert_many([[n, "x" * 1000] for n in range(4)])
        pages_before = table.page_count
        table.delete(ids[0])
        table.insert([99, "z" * 900])
        assert table.page_count == pages_before


class TestPlaceAt:
    """Redo replay's forced placement (``HeapTable.place_at``)."""

    def test_rejects_a_real_tombstone_that_is_too_small(self, table):
        row_id = table.insert([1, "ab"])
        table.delete(row_id)
        with pytest.raises(StorageError, match="does not fit"):
            table.place_at(row_id, [1, "a much longer body"])

    def test_rejects_an_occupied_slot(self, table):
        row_id = table.insert([1, "ab"])
        with pytest.raises(StorageError, match="occupied"):
            table.place_at(row_id, [2, "cd"])

    def test_fills_a_replay_gap_out_of_order(self, table):
        """Slots placed out of log order end bit-identical to in-order
        placement: the later slot pads a 0-byte gap the earlier row
        then takes, charged as an append."""
        in_order = HeapTable(table.schema)
        in_order.place_at(RowId(0, 0), [10, "ten"])
        in_order.place_at(RowId(0, 1), [11, "eleven"])
        table.place_at(RowId(0, 1), [11, "eleven"])
        table.place_at(RowId(0, 0), [10, "ten"])
        expected, actual = in_order.pages.pages[0], table.pages.pages[0]
        assert actual.slots == expected.slots
        assert actual.slot_sizes == expected.slot_sizes
        assert actual.used_bytes == expected.used_bytes
        assert actual.checksum == expected.checksum
        actual.verify()


class TestScan:
    def test_scan_yields_live_rows_only(self, table):
        ids = table.insert_many([[n, "x"] for n in range(5)])
        table.delete(ids[2])
        values = [row[0] for row in table.scan_rows()]
        assert values == [0, 1, 3, 4]

    def test_scan_counts_pages_once_each(self, table):
        counters = table.pages.counters
        table.insert_many([[n, "x" * 1000] for n in range(8)])
        counters.reset()
        list(table.scan_rows())
        assert counters.page_reads == table.page_count

    def test_truncate(self, table):
        table.insert_many([[n, "x"] for n in range(5)])
        table.truncate()
        assert table.row_count == 0
        assert list(table.scan_rows()) == []


class TestSharedCounters:
    def test_two_tables_share_counters(self):
        counters = IOCounters()
        schema_a = TableSchema("a", [Column("x", INTEGER)])
        schema_b = TableSchema("b", [Column("y", INTEGER)])
        table_a = HeapTable(schema_a, counters)
        table_b = HeapTable(schema_b, counters)
        table_a.insert([1])
        table_b.insert([2])
        assert counters.rows_written == 2

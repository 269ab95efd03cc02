"""Tests for the system catalog."""

import pytest

from repro.engine.catalog import Catalog
from repro.engine.constraints import ForeignKeyConstraint, PrimaryKeyConstraint
from repro.engine.index import BTreeIndex
from repro.engine.schema import Column, TableSchema
from repro.engine.table import HeapTable
from repro.engine.types import INTEGER
from repro.errors import DuplicateObjectError, UnknownObjectError


def make_table(name: str) -> HeapTable:
    return HeapTable(
        TableSchema(name, [Column("a", INTEGER), Column("b", INTEGER)])
    )


@pytest.fixture
def catalog() -> Catalog:
    cat = Catalog()
    cat.add_table(make_table("t"))
    cat.add_table(make_table("u"))
    return cat


class TestTables:
    def test_lookup_case_insensitive(self, catalog):
        assert catalog.table("T").schema.name == "t"

    def test_duplicate_rejected(self, catalog):
        with pytest.raises(DuplicateObjectError):
            catalog.add_table(make_table("t"))

    def test_unknown_raises(self, catalog):
        with pytest.raises(UnknownObjectError):
            catalog.table("nope")

    def test_drop_cascades_to_indexes(self, catalog):
        index = BTreeIndex("ix", catalog.table("t").schema, ["a"])
        catalog.add_index(index)
        catalog.drop_table("t")
        with pytest.raises(UnknownObjectError):
            catalog.index("ix")

    def test_table_names_sorted(self, catalog):
        assert catalog.table_names() == ["t", "u"]


class TestIndexes:
    def test_find_index_exact(self, catalog):
        catalog.add_index(BTreeIndex("ix", catalog.table("t").schema, ["a"]))
        assert catalog.find_index("t", ["a"]).name == "ix"
        assert catalog.find_index("t", ["b"]) is None

    def test_find_index_prefix(self, catalog):
        catalog.add_index(
            BTreeIndex("ix2", catalog.table("t").schema, ["a", "b"])
        )
        assert catalog.find_index("t", ["a"], prefix_ok=True).name == "ix2"
        assert catalog.find_index("t", ["a"], prefix_ok=False) is None

    def test_index_for_unknown_table_rejected(self, catalog):
        index = BTreeIndex("ix", make_table("ghost").schema, ["a"])
        with pytest.raises(UnknownObjectError):
            catalog.add_index(index)

    def test_indexes_on(self, catalog):
        catalog.add_index(BTreeIndex("i1", catalog.table("t").schema, ["a"]))
        catalog.add_index(BTreeIndex("i2", catalog.table("t").schema, ["b"]))
        assert [i.name for i in catalog.indexes_on("t")] == ["i1", "i2"]
        assert catalog.indexes_on("u") == []


class TestConstraints:
    def test_add_and_list(self, catalog):
        catalog.add_constraint(PrimaryKeyConstraint("pk", "t", ["a"]))
        assert [c.name for c in catalog.constraints_on("t")] == ["pk"]

    def test_duplicate_name_rejected(self, catalog):
        catalog.add_constraint(PrimaryKeyConstraint("pk", "t", ["a"]))
        with pytest.raises(DuplicateObjectError):
            catalog.add_constraint(PrimaryKeyConstraint("pk", "t", ["b"]))

    def test_foreign_keys_referencing(self, catalog):
        fk = ForeignKeyConstraint("fk", "u", ["a"], "t", ["a"])
        catalog.add_constraint(fk)
        assert catalog.foreign_keys_referencing("t") == [fk]
        assert catalog.foreign_keys_referencing("u") == []

    def test_drop_constraint(self, catalog):
        catalog.add_constraint(PrimaryKeyConstraint("pk", "t", ["a"]))
        catalog.drop_constraint("t", "pk")
        assert catalog.constraints_on("t") == []


class TestStatisticsAndSummaries:
    def test_statistics_roundtrip(self, catalog):
        catalog.set_statistics("t", {"rows": 5})
        assert catalog.statistics("t") == {"rows": 5}
        assert catalog.statistics("u") is None

    def test_summary_tables(self, catalog):
        catalog.add_summary_table("s1", object())
        assert "s1" in catalog.summary_tables()
        catalog.drop_summary_table("s1")
        with pytest.raises(UnknownObjectError):
            catalog.summary_table("s1")


class TestInvalidation:
    def test_callbacks_fire_once(self, catalog):
        fired = []
        catalog.on_invalidate("softconstraint:x", fired.append)
        assert catalog.fire_invalidation("softconstraint:x") == 1
        assert fired == ["softconstraint:x"]
        # Second fire: callback already consumed.
        assert catalog.fire_invalidation("softconstraint:x") == 0

    def test_multiple_callbacks(self, catalog):
        fired = []
        catalog.on_invalidate("softconstraint:c", lambda d: fired.append(1))
        catalog.on_invalidate("softconstraint:c", lambda d: fired.append(2))
        assert catalog.fire_invalidation("softconstraint:c") == 2
        assert fired == [1, 2]

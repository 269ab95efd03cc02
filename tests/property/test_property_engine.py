"""Property-based tests on storage-engine invariants.

A random DML sequence, with transactions that commit or roll back, applied
to a heap + index must keep: every live row at the rid a Python-dict model
gives it, the index consistent with the heap, and all min/max soft
constraints maintained by widening still absolute.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.transactions import Transaction
from repro.engine.types import INTEGER, VARCHAR
from repro.softcon.maintenance import RepairPolicy
from repro.softcon.minmax import MinMaxSC
from repro.softcon.registry import SoftConstraintRegistry

#: Pad widths: a page holds two wide rows, so widening a row on a full
#: page forwards it.
WIDTHS = st.sampled_from([0, 1500])
WIDE = ("insert", 0, 0, 1500)
#: Rolled back after the insert hint has left page 0: a delete there, and
#: an update that forwarded a row off it.
ROLLBACK_DELETE = [WIDE] * 3 + [("begin",), ("delete", 0), ("rollback",)]
ROLLBACK_FORWARD = [("insert", 0, 0, 0)] + [WIDE] * 3 + [
    ("begin",), ("update", 0, 0, 1500), ("rollback",),
]


@st.composite
def dml_scripts(draw):
    """A list of operations: ('insert', k, v, w) / ('delete', i) /
    ('update', i, v, w) / ('begin',) / ('commit',) / ('rollback',), where
    ``w`` is the width of the row's padding."""
    operations = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("insert"),
                    st.integers(0, 50),
                    st.integers(-100, 100),
                    WIDTHS,
                ),
                st.tuples(st.just("delete"), st.integers(0, 30)),
                st.tuples(
                    st.just("update"),
                    st.integers(0, 30),
                    st.integers(-100, 100),
                    WIDTHS,
                ),
                st.tuples(st.sampled_from(["begin", "commit", "rollback"])),
            ),
            # Long enough to fill pages and put the insert hint past them.
            min_size=20,
            max_size=40,
        )
    )
    return operations


def apply_script(operations):
    """Run the script; returns the database and its ``{rid: row}`` model.

    Outside a transaction the database itself is the writer.  A rollback
    restores the model as of ``begin``: every row is back at its rid.
    """
    database = Database()
    database.create_table(
        TableSchema(
            "t",
            [Column("k", INTEGER), Column("v", INTEGER), Column("pad", VARCHAR(1500))],
        )
    )
    database.create_index("ix", "t", ["k"])
    model = {}
    writer, saved = database, None
    for operation in operations:
        kind = operation[0]
        if kind == "begin" and saved is None:
            writer, saved = Transaction(database), dict(model)
        elif kind in ("commit", "rollback") and saved is not None:
            getattr(writer, kind)()
            if kind == "rollback":
                model = saved
            writer, saved = database, None
        elif kind == "insert":
            _, k, v, width = operation
            row = (k, v, "x" * width)
            model[writer.insert("t", row)] = row
        elif kind == "delete" and model:
            victim = sorted(model)[operation[1] % len(model)]
            writer.delete("t", victim)
            del model[victim]
        elif kind == "update" and model:
            _, pick, v, width = operation
            victim = sorted(model)[pick % len(model)]
            row = (model.pop(victim)[0], v, "x" * width)
            model[writer.update("t", victim, row)] = row
    return database, model


@given(dml_scripts())
@example(ROLLBACK_DELETE)
@example(ROLLBACK_FORWARD)
@settings(max_examples=100)
def test_heap_matches_model(operations):
    database, model = apply_script(operations)
    assert sorted(database.table("t").scan()) == sorted(model.items())
    assert database.table("t").row_count == len(model)


@given(dml_scripts())
@settings(max_examples=100)
def test_index_consistent_with_heap(operations):
    database, model = apply_script(operations)
    index = database.catalog.index("ix")
    index_pairs = sorted(
        (key[0], rid) for key, rid in index.range_scan(None, None)
    )
    heap_pairs = sorted(
        (row[0], rid) for rid, row in database.table("t").scan()
    )
    assert index_pairs == heap_pairs


@given(dml_scripts())
@settings(max_examples=60)
def test_minmax_with_repair_stays_absolute(operations):
    database = Database()
    database.create_table(
        TableSchema("t", [Column("k", INTEGER), Column("v", INTEGER)])
    )
    registry = SoftConstraintRegistry(database)
    constraint = MinMaxSC("mm", "t", "v", 0, 0)
    registry.register(constraint, policy=RepairPolicy(), activate=True)
    for operation in operations:
        if operation[0] == "insert":
            database.insert("t", [operation[1], operation[2]])
    violations, _ = constraint.verify(database)
    assert violations == 0  # widening repair keeps it absolute

"""Round-trip property tests for the durability serialization codecs.

Everything the WAL and checkpoints persist must decode back to an equal
object (identity) and encode to the same bytes again (checksum
stability) — the two properties the crash-differential harness leans on
when it compares a recovered database bit-for-bit against its twin.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import codec
from repro.engine.database import Database
from repro.engine.row import RowId
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType
from repro.errors import WALCorruptionError
from repro.softcon.base import SCState
from repro.softcon.checksc import CheckSoftConstraint
from repro.softcon.currency import CurrencyModel
from repro.softcon.fd import FunctionalDependencySC
from repro.softcon.holes import JoinHolesSC, Rectangle
from repro.softcon.joinlinear import JoinLinearSC
from repro.softcon.linear import LinearCorrelationSC
from repro.softcon.maintenance import (
    AsyncRepairPolicy,
    DropPolicy,
    RepairPolicy,
)
from repro.softcon.minmax import MinMaxSC

import pytest


#: Scalars the engine's type layer can store in a row: ints, finite
#: floats, strings, booleans, NULLs.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
)


@given(st.lists(scalars, max_size=8))
@settings(max_examples=200, deadline=None)
def test_row_roundtrip_identity_and_stability(values):
    row = tuple(values)
    encoded = codec.encode_row(row)
    decoded = codec.decode_row(encoded)
    assert decoded == row
    assert all(type(a) is type(b) for a, b in zip(decoded, row))
    # Byte-stable: same logical row, same canonical bytes, same CRC.
    assert codec.canonical_dumps(encoded) == codec.canonical_dumps(
        codec.encode_row(decoded)
    )
    assert codec.crc_of(encoded) == codec.crc_of(codec.encode_row(decoded))


def test_row_roundtrip_negative_zero_and_bool_vs_int():
    row = (-0.0, 0.0, True, 1, False, 0)
    decoded = codec.decode_row(codec.encode_row(row))
    assert decoded == row
    assert math.copysign(1.0, decoded[0]) == -1.0
    assert type(decoded[2]) is bool and type(decoded[3]) is int


@given(st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_rid_roundtrip(page_id, slot_no):
    rid = RowId(page_id, slot_no)
    assert codec.decode_rid(codec.encode_rid(rid)) == rid


def _schema():
    return TableSchema(
        "t",
        [
            Column("a", SqlType("INTEGER"), nullable=False),
            Column("b", SqlType("VARCHAR", 30)),
            Column("c", SqlType("DOUBLE")),
            Column("d", SqlType("BOOLEAN")),
        ],
    )


def test_schema_roundtrip():
    schema = _schema()
    decoded = codec.decode_schema(codec.encode_schema(schema))
    assert decoded.name == schema.name
    assert [
        (c.name, c.type.kind, c.type.length, c.nullable)
        for c in decoded.columns
    ] == [
        (c.name, c.type.kind, c.type.length, c.nullable)
        for c in schema.columns
    ]


@given(
    st.lists(
        st.tuples(
            st.integers(-1000, 1000),
            st.one_of(st.none(), st.text(max_size=20)),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.one_of(st.none(), st.booleans()),
        ),
        min_size=1,
        max_size=30,
    ),
    st.lists(st.integers(0, 29), max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_page_image_roundtrip(rows, delete_positions):
    """A page built by real inserts (and tombstoned by real deletes)
    round-trips: same slots, sizes, verified checksum, stable CRC."""
    database = Database()
    database.create_table(_schema())
    table = database.table("t")
    rids = [table.insert(row) for row in rows]
    for position in delete_positions:
        if position < len(rids) and rids[position] is not None:
            table.delete(rids[position])
            rids[position] = None
    memo = codec.TextMemo()
    for page in table.pages.pages:
        image = codec.encode_page(page)
        # A checkpoint writes the memo's text: cold, then warm.
        assert memo.page(page).text == codec.canonical_dumps(image)
        assert memo.page(page).text == codec.canonical_dumps(image)
        restored = codec.decode_page(image)
        assert restored.page_id == page.page_id
        assert restored.slots == page.slots
        assert restored.slot_sizes == page.slot_sizes
        assert restored.used_bytes == page.used_bytes
        restored.verify()
        assert codec.canonical_dumps(
            codec.encode_page(restored)
        ) == codec.canonical_dumps(image)


def test_page_image_crc_rejects_tampering():
    database = Database()
    database.create_table(_schema())
    table = database.table("t")
    table.insert((1, "x", 1.5, True))
    image = codec.encode_page(table.pages.pages[0])
    image["slots"][0][0] = 999
    with pytest.raises(WALCorruptionError):
        codec.decode_page(image)


def test_index_image_roundtrip():
    database = Database()
    database.create_table(_schema())
    table = database.table("t")
    for n in range(40):
        table_rid = table.insert((n, f"s{n}", float(n), n % 2 == 0))
        assert table_rid is not None
    index = database.create_index("ix_t_a", "t", ["a"])
    image = codec.encode_index(index)
    assert codec.TextMemo().index(index).text == codec.canonical_dumps(image)
    restored = codec.decode_index(image, table.schema, database.counters)
    assert restored.name == index.name
    assert restored._keys == index._keys
    assert restored._rids == index._rids
    assert restored.unique == index.unique
    restored.verify()
    assert codec.canonical_dumps(
        codec.encode_index(restored)
    ) == codec.canonical_dumps(image)
    image["rids"][0] = [999, 999]
    with pytest.raises(WALCorruptionError):
        codec.decode_index(image, table.schema, database.counters)


def _soft_constraints():
    yield MinMaxSC("mm", "t", "a", -5, 120, 0.97)
    yield CheckSoftConstraint("ck", "t", "a > 0 AND c < 100.5", 0.9)
    yield FunctionalDependencySC("fd", "t", ["a"], ["b", "c"], 1.0)
    yield LinearCorrelationSC("lc", "t", "a", "c", 2.0, -1.0, 0.25, 0.88)
    yield JoinHolesSC(
        "jh", "t", "a", "u", "x", "id", "t_id",
        holes=[Rectangle(0, 10, 5, 25), Rectangle(30, 40, 0, 1)],
        confidence=1.0,
    )
    yield JoinLinearSC("jl", "t", "a", "u", "x", "id", "t_id", 1.5, 0.0, 3.0, 0.75)


@pytest.mark.parametrize(
    "sc", list(_soft_constraints()), ids=lambda sc: sc.name
)
def test_soft_constraint_roundtrip(sc):
    sc.state = SCState.ACTIVE
    sc.updates_since_verified = 7
    sc.verified_epoch = 3
    sc.violation_count = 2
    sc.validity_version = 4
    sc.values_version = 9
    image = codec.encode_soft_constraint(sc)
    restored = codec.decode_soft_constraint(image)
    assert type(restored) is type(sc)
    assert restored.name == sc.name
    assert restored.state is sc.state
    assert restored.confidence == sc.confidence
    assert restored.updates_since_verified == 7
    assert restored.verified_epoch == 3
    assert restored.violation_count == 2
    assert restored.validity_version == 4
    assert restored.values_version == 9
    assert restored.statement_sql() == sc.statement_sql()
    assert codec.canonical_dumps(
        codec.encode_soft_constraint(restored)
    ) == codec.canonical_dumps(image)


def test_policy_roundtrip():
    assert codec.decode_policy(codec.encode_policy(None)) is None
    assert isinstance(
        codec.decode_policy(codec.encode_policy(DropPolicy())), DropPolicy
    )
    repair = codec.decode_policy(codec.encode_policy(RepairPolicy()))
    assert isinstance(repair, RepairPolicy)
    assert not isinstance(repair, AsyncRepairPolicy)
    sc = MinMaxSC("mm", "t", "a", 0, 1, 1.0)
    policy = AsyncRepairPolicy(drop_threshold=0.7)
    policy.queue.append(sc)
    image = codec.encode_policy(policy)
    assert image["queue"] == ["mm"]
    restored = codec.decode_policy(image)
    assert isinstance(restored, AsyncRepairPolicy)
    assert restored.drop_threshold == 0.7
    # The queue is re-resolved by name at restore time, not by the codec.
    assert restored.queue == []


def test_currency_roundtrip():
    assert codec.decode_currency(codec.encode_currency(None)) is None
    model = CurrencyModel(500)
    for _ in range(17):
        model.record_update()
    restored = codec.decode_currency(codec.encode_currency(model))
    assert restored.row_count == model.row_count
    assert restored.updates_seen == model.updates_seen
    assert restored.total_updates == model.total_updates
    assert restored.margin_of_error == model.margin_of_error


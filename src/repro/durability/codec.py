"""Deterministic serialization codecs for the durability layer.

Everything the WAL and checkpoints persist goes through this module, so
the on-disk encoding has a single definition.  The encoding is canonical
JSON — sorted keys, no whitespace — which makes every structure
CRC-stable: the same logical value always produces the same bytes, and
:func:`crc_of` over those bytes is the integrity check both the log
framing and the checkpoint loader use.

Values are restricted to the engine's scalar universe (int, float, str,
bool, None — dates are stored as int day counts by the type layer), so
JSON round-trips them exactly; rows come back as tuples, row ids as
:class:`~repro.engine.row.RowId`.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.constraints import (
    CheckConstraint,
    Constraint,
    ConstraintMode,
    ForeignKeyConstraint,
    NotNullConstraint,
    PrimaryKeyConstraint,
    UniqueConstraint,
)
from repro.engine.index import BTreeIndex
from repro.engine.page import Page
from repro.engine.row import RowId
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType
from repro.errors import WALCorruptionError
from repro.expr.eval import compile_predicate
from repro.softcon import MaintenancePolicy, SCState, SoftConstraint
from repro.softcon.currency import CurrencyModel
from repro.sql.parser import parse_expression
from repro.sql.printer import sql_of

__all__ = [
    "canonical_dumps",
    "crc_of",
    "encode_row",
    "decode_row",
    "encode_rid",
    "decode_rid",
    "encode_schema",
    "decode_schema",
    "encode_page",
    "decode_page",
    "encode_index",
    "decode_index",
    "encode_constraint",
    "decode_constraint",
    "encode_soft_constraint",
    "decode_soft_constraint",
    "encode_policy",
    "decode_policy",
    "encode_currency",
    "decode_currency",
]


def canonical_dumps(value: Any) -> str:
    """Canonical JSON: sorted keys, minimal separators, CRC-stable."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def crc_of(value: Any) -> int:
    """CRC32 of the canonical encoding — the portable integrity check.

    (The engine's in-memory page/index checksums use Python ``hash``,
    which is salted per process for strings; anything that crosses a
    process boundary is guarded by this CRC instead, and the in-memory
    checksums are recomputed after load.)
    """
    return zlib.crc32(canonical_dumps(value).encode("utf-8")) & 0xFFFFFFFF


# -- rows and row ids -------------------------------------------------------


def encode_row(row: Tuple[Any, ...]) -> List[Any]:
    return list(row)


def decode_row(values: List[Any]) -> Tuple[Any, ...]:
    return tuple(values)


def encode_rid(rid: RowId) -> List[int]:
    return [rid.page_id, rid.slot_no]


def decode_rid(pair: List[int]) -> RowId:
    return RowId(pair[0], pair[1])


# -- schemas ----------------------------------------------------------------


def encode_schema(schema: TableSchema) -> Dict[str, Any]:
    return {
        "name": schema.name,
        "columns": [
            {
                "name": column.name,
                "kind": column.type.kind,
                "length": column.type.length,
                "nullable": column.nullable,
            }
            for column in schema.columns
        ],
    }


def decode_schema(state: Dict[str, Any]) -> TableSchema:
    columns = [
        Column(
            spec["name"],
            SqlType(spec["kind"], spec["length"]),
            nullable=spec["nullable"],
        )
        for spec in state["columns"]
    ]
    return TableSchema(state["name"], columns)


# -- heap pages -------------------------------------------------------------


def encode_page(page: Page) -> Dict[str, Any]:
    body = {
        "page_id": page.page_id,
        "slots": [
            None if slot is None else encode_row(slot) for slot in page.slots
        ],
        "slot_sizes": list(page.slot_sizes),
        "used_bytes": page.used_bytes,
    }
    body["crc"] = crc_of([body["slots"], body["slot_sizes"]])
    return body


def decode_page(state: Dict[str, Any]) -> Page:
    slots = [
        None if slot is None else decode_row(slot) for slot in state["slots"]
    ]
    if state.get("crc") != crc_of([state["slots"], state["slot_sizes"]]):
        raise WALCorruptionError(
            f"checkpoint page image {state.get('page_id')} failed its CRC"
        )
    page = Page(state["page_id"])
    page.slots = slots
    page.slot_sizes = list(state["slot_sizes"])
    page.used_bytes = state["used_bytes"]
    # In-memory XOR checksums are process-local (hash salting); rebuild.
    page.checksum = page.compute_checksum()
    return page


# -- B-tree indexes ---------------------------------------------------------


def encode_index(index: BTreeIndex) -> Dict[str, Any]:
    body = {
        "name": index.name,
        "table": index.table_name,
        "columns": list(index.column_names),
        "unique": index.unique,
        "quarantined": index.quarantined,
        "keys": [encode_row(key) for key in index._keys],
        "rids": [encode_rid(rid) for rid in index._rids],
    }
    body["crc"] = crc_of([body["keys"], body["rids"]])
    return body


def decode_index(
    state: Dict[str, Any], table_schema: TableSchema, counters: Any
) -> BTreeIndex:
    if state.get("crc") != crc_of([state["keys"], state["rids"]]):
        raise WALCorruptionError(
            f"checkpoint index image {state.get('name')!r} failed its CRC"
        )
    index = BTreeIndex(
        state["name"],
        table_schema,
        state["columns"],
        unique=state["unique"],
        counters=counters,
    )
    index.load_entries(
        [decode_row(key) for key in state["keys"]],
        [decode_rid(rid) for rid in state["rids"]],
        quarantined=state["quarantined"],
    )
    return index


# -- hard constraints -------------------------------------------------------


def encode_constraint(constraint: Constraint) -> Dict[str, Any]:
    state: Dict[str, Any] = {
        "kind": constraint.kind,
        "name": constraint.name,
        "table": constraint.table_name,
        "mode": constraint.mode.name,
    }
    if constraint.kind == "not_null":
        state["column"] = constraint.column_name
    elif constraint.kind in ("unique", "primary_key"):
        state["columns"] = list(constraint.column_names)
        state["backing_index"] = constraint.backing_index_name
    elif constraint.kind == "foreign_key":
        state["columns"] = list(constraint.column_names)
        state["parent_table"] = constraint.parent_table
        state["parent_columns"] = list(constraint.parent_columns)
    elif constraint.kind == "check":
        state["sql_text"] = constraint.sql_text or sql_of(
            constraint.expression
        )
    else:
        raise WALCorruptionError(
            f"cannot serialize constraint kind {constraint.kind!r}"
        )
    return state


def decode_constraint(state: Dict[str, Any]) -> Constraint:
    kind = state["kind"]
    mode = ConstraintMode[state["mode"]]
    name = state["name"]
    table = state["table"]
    if kind == "not_null":
        return NotNullConstraint(name, table, state["column"], mode)
    if kind in ("unique", "primary_key"):
        cls = PrimaryKeyConstraint if kind == "primary_key" else UniqueConstraint
        constraint = cls(name, table, state["columns"], mode)
        constraint.backing_index_name = state["backing_index"]
        return constraint
    if kind == "foreign_key":
        return ForeignKeyConstraint(
            name,
            table,
            state["columns"],
            state["parent_table"],
            state["parent_columns"],
            mode,
        )
    if kind == "check":
        expression = parse_expression(state["sql_text"])
        return CheckConstraint(
            name,
            table,
            compile_predicate(expression),
            expression,
            state["sql_text"],
            mode,
        )
    raise WALCorruptionError(f"cannot deserialize constraint kind {kind!r}")


# -- soft constraints -------------------------------------------------------


#: Lifecycle bookkeeping every kind shares, recorded verbatim.
_SC_LIFECYCLE = (
    "updates_since_verified",
    "verified_epoch",
    "violation_count",
    "validity_version",
    "values_version",
)


def encode_soft_constraint(sc: SoftConstraint) -> Dict[str, Any]:
    """Lifecycle fields here; the statement is the kind's own
    :meth:`~repro.softcon.base.SoftConstraint.record_fields`."""
    state: Dict[str, Any] = {
        "class": type(sc).__name__,
        "name": sc.name,
        "confidence": sc.confidence,
        "state": sc.state.value,
    }
    state.update((field, getattr(sc, field)) for field in _SC_LIFECYCLE)
    state.update(sc.record_fields())
    return state


def decode_soft_constraint(state: Dict[str, Any]) -> SoftConstraint:
    kind = SoftConstraint.kind_named(state["class"])
    if kind is None:
        raise WALCorruptionError(
            f"cannot deserialize soft constraint class {state['class']!r}"
        )
    sc = kind.from_record(state)
    sc.state = SCState(state["state"])
    for field in _SC_LIFECYCLE:
        setattr(sc, field, state[field])
    return sc


# -- maintenance policies / currency ---------------------------------------


def encode_policy(policy: Optional[MaintenancePolicy]) -> Optional[Dict]:
    # An unknown user-defined policy records None: the registry default.
    return None if policy is None else policy.record()


def decode_policy(state: Optional[Dict]) -> Optional[MaintenancePolicy]:
    if state is None:
        return None
    policy = MaintenancePolicy.named(state["type"])
    return None if policy is None else policy.from_record(state)


def encode_currency(model: Optional[CurrencyModel]) -> Optional[Dict]:
    if model is None:
        return None
    return {
        "row_count": model.row_count,
        "updates_seen": model.updates_seen,
        "total_updates": model.total_updates,
    }


def decode_currency(state: Optional[Dict]) -> Optional[CurrencyModel]:
    if state is None:
        return None
    model = CurrencyModel(state["row_count"])
    model.updates_seen = state["updates_seen"]
    model._total_updates = state["total_updates"]
    return model

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

``encode_*`` give the structural form (dicts and lists).  A checkpoint
image is written from text instead: :class:`TextMemo` keeps the
canonical text of every row, index key and row id it has encoded, keyed
by the identity of those immutable objects, and builds each page and
index as an :class:`Encoded` fragment that :func:`image_text` emits
verbatim.  The text is byte-identical to ``canonical_dumps`` of
:func:`encode_page` / :func:`encode_index`, so the decoders serve both.
"""

from __future__ import annotations

import json
import zlib
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
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
    "Encoded",
    "image_text",
    "TextMemo",
    "encode_constraint",
    "decode_constraint",
    "encode_soft_constraint",
    "decode_soft_constraint",
    "encode_policy",
    "decode_policy",
    "encode_currency",
    "decode_currency",
]


#: The one canonical encoder.  ``json.dumps`` with non-default options
#: builds a fresh ``JSONEncoder`` per call; a shared instance does not.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_dumps(value: Any) -> str:
    """Canonical JSON: sorted keys, minimal separators, CRC-stable."""
    return _CANONICAL(value)


def crc_of(value: Any) -> int:
    """CRC32 of the canonical encoding — the portable integrity check.

    (The engine's in-memory page/index checksums use Python ``hash``,
    which is salted per process for strings; anything that crosses a
    process boundary is guarded by this CRC instead, and the in-memory
    checksums are recomputed after load.)
    """
    return zlib.crc32(_CANONICAL(value).encode("utf-8")) & 0xFFFFFFFF


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


# -- checkpoint image text --------------------------------------------------


class Encoded:
    """A fragment of canonical JSON text, already encoded.

    :func:`image_text` emits it verbatim; :func:`canonical_dumps` refuses
    it (it is not a JSON value), so a fragment cannot be encoded twice.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def image_text(value: Any) -> str:
    """``canonical_dumps(value)``, with :class:`Encoded` fragments
    emitted verbatim.

    Dicts are descended, and so is a list whose first item is a
    fragment; anything else is one ``canonical_dumps`` call, which
    refuses a fragment nested deeper rather than encode it wrongly.
    """
    kind = type(value)
    if kind is Encoded:
        return value.text
    if kind is dict and all(type(key) is str for key in value):
        return "{%s}" % ",".join(
            "%s:%s" % (_CANONICAL(key), image_text(value[key]))
            for key in sorted(value)
        )
    if kind is list and value and type(value[0]) is Encoded:
        return "[%s]" % ",".join(map(image_text, value))
    return _CANONICAL(value)


#: Objects whose canonical text may be memoised: immutable, and (in the
#: engine's scalar universe) holding only immutable values.
_MEMOISABLE = frozenset((tuple, RowId, type(None)))


#: The C encoder ``JSONEncoder.encode`` builds on every call, built once
#: (without circular-reference markers it keeps no state between calls);
#: half the cost per value.  None where ``json`` has no C accelerator.
_CHUNKS = c_make_encoder and c_make_encoder(
    None, None, encode_basestring_ascii, None, ":", ",", True, False, True
)


def _encode_each(objects: List[Any]) -> List[str]:
    """``[canonical_dumps(obj) for obj in objects]``."""
    if _CHUNKS is None:
        return list(map(_CANONICAL, objects))
    return list(map("".join, map(_CHUNKS, objects, repeat(0))))


class TextMemo:
    """Canonical JSON text of the heap rows, index keys and row ids a
    checkpoint image encodes, keyed by object identity.

    Rows, keys and :class:`~repro.engine.row.RowId` s are immutable
    tuples of scalars, and the memo holds a reference to every object it
    caches, so no cached id can be reused by another object: a hit is
    that object's own text.  An image then encodes only what changed
    since the previous one.  Texts by id in a dict and the objects in a
    parallel list, rather than per-entry pairs: the memo adds no
    GC-tracked object per row.

    :meth:`page` and :meth:`index` give the same text as
    ``canonical_dumps`` of :func:`encode_page` / :func:`encode_index`,
    CRC included.  :meth:`trim` bounds the memo after each image.
    """

    def __init__(self) -> None:
        self._text: Dict[int, str] = {}
        self._held: List[Any] = []
        self._owners: List[Any] = []
        self._remember([None], ["null"])

    def __len__(self) -> int:
        """Cached rows, keys and row ids (the ``null`` of an empty slot
        is always held and not counted)."""
        return len(self._text) - 1

    def _remember(self, objects: List[Any], texts: List[str]) -> None:
        if not set(map(type, objects)) <= _MEMOISABLE:
            keep = [
                at for at, obj in enumerate(objects)
                if type(obj) in _MEMOISABLE
            ]
            objects = [objects[at] for at in keep]
            texts = [texts[at] for at in keep]
        self._text.update(zip(map(id, objects), texts))
        self._held += objects

    def _joined(self, objects: List[Any]) -> str:
        """The JSON array of ``objects``: memoised texts, and the misses
        encoded once and remembered."""
        texts = list(map(self._text.get, map(id, objects)))
        misses = texts.count(None)
        if misses * 2 > len(texts):
            # Mostly new (a first image): encode everything in one map.
            texts = _encode_each(objects)
            self._remember(objects, texts)
        elif misses:
            found = []
            at = -1
            for _ in range(misses):
                at = texts.index(None, at + 1)
                found.append(at)
            new = [objects[at] for at in found]
            encoded = _encode_each(new)
            for at, text in zip(found, encoded):
                texts[at] = text
            self._remember(new, encoded)
        return "[%s]" % ",".join(texts)

    def page(self, page: Page) -> Encoded:
        """:func:`encode_page`'s canonical text."""
        slots = self._joined(page.slots)
        sizes = _CANONICAL(page.slot_sizes)
        crc = zlib.crc32(("[%s,%s]" % (slots, sizes)).encode("utf-8"))
        return Encoded(
            '{"crc":%d,"page_id":%d,"slot_sizes":%s,"slots":%s,'
            '"used_bytes":%d}'
            % (crc & 0xFFFFFFFF, page.page_id, sizes, slots, page.used_bytes)
        )

    def index(self, index: BTreeIndex) -> Encoded:
        """:func:`encode_index`'s canonical text."""
        keys = self._joined(index._keys)
        rids = self._joined(index._rids)
        crc = zlib.crc32(("[%s,%s]" % (keys, rids)).encode("utf-8"))
        return Encoded(
            '{"columns":%s,"crc":%d,"keys":%s,"name":%s,"quarantined":%s,'
            '"rids":%s,"table":%s,"unique":%s}'
            % (
                _CANONICAL(list(index.column_names)),
                crc & 0xFFFFFFFF,
                keys,
                _CANONICAL(index.name),
                _CANONICAL(index.quarantined),
                rids,
                _CANONICAL(index.table_name),
                _CANONICAL(index.unique),
            )
        )

    def trim(self, tables: List[Any], indexes: List[BTreeIndex]) -> None:
        """Bound the memo after an image of ``tables`` and ``indexes``.

        Once it holds more than twice the objects the image encoded, or
        a table or index is gone, it is rebuilt from what the
        image's tables and indexes hold now: dead rows and keys, and
        everything of a dropped table, are let go.
        """
        slot_lists = [
            page.slots for table in tables for page in table.pages.pages
        ]
        sequences = slot_lists + [index._keys for index in indexes]
        sequences += [index._rids for index in indexes]
        used = sum(map(len, sequences)) - sum(
            slots.count(None) for slots in slot_lists
        )
        owners = [*tables, *indexes]
        dropped = set(map(id, self._owners)).difference(map(id, owners))
        self._owners = owners
        if not dropped and len(self) <= 2 * used:
            return
        self._held = list(chain.from_iterable(sequences))
        live = set(map(id, self._held)).intersection(self._text)
        self._text = dict(zip(live, map(self._text.__getitem__, live)))
        self._remember([None], ["null"])


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

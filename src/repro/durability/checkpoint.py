"""Checkpoint images: atomic write, CRC-verified load.

A checkpoint is one JSON document — the full serialized database state
plus the WAL byte offset it is consistent with — written to a temporary
file and installed with an atomic rename.  A crash at any point of the
write leaves either the previous checkpoint or the new one, never a
torn hybrid; recovery then replays the WAL from the installed image's
``wal_offset``.

File format::

    <crc32 hex of body, 8 chars>\\n
    <canonical JSON body>

:func:`write_checkpoint` is the one writer: a checkpoint, a close, a
shipper's resync image and a replica installing it all come here.  An
image arrives with its pages, tables and indexes already encoded
(:class:`~repro.durability.codec.Encoded`, from the manager's
:class:`~repro.durability.codec.TextMemo`); they are emitted verbatim,
the body is exactly ``canonical_dumps`` of the structural payload, and
its CRC is taken over the bytes written.

The two durability crash points here are ``checkpoint_write`` (after
the tmp image is complete, before the rename — the previous checkpoint
must survive) and, upstream in the payload builders, ``page_flush`` /
``catalog_serialize`` (mid-serialization — no tmp rename ever happens).
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any, Dict, Optional

from repro.durability.codec import image_text
from repro.errors import WALCorruptionError
from repro.resilience.faults import FaultInjector, crash_if_due

__all__ = ["write_checkpoint", "load_checkpoint"]


def write_checkpoint(
    path: Path,
    payload: Dict[str, Any],
    crash_points: Optional[FaultInjector] = None,
) -> None:
    """Write ``payload`` to ``path`` via tmp-file + atomic rename.

    The body is ``canonical_dumps(payload)``, with an image's
    pre-encoded fragments (pages, tables, indexes) emitted verbatim; its
    CRC is taken over those same bytes.
    """
    path = Path(path)
    body = image_text(payload).encode("utf-8")
    header = b"%08x\n" % (zlib.crc32(body) & 0xFFFFFFFF)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(header)
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    crash_if_due(crash_points, "checkpoint_write")
    os.replace(tmp, path)


def load_checkpoint(path: Path) -> Dict[str, Any]:
    """Load and CRC-verify a checkpoint image."""
    path = Path(path)
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    if newline != 8:
        raise WALCorruptionError(f"malformed checkpoint header in {path}")
    try:
        expected = int(raw[:8], 16)
    except ValueError:
        raise WALCorruptionError(f"malformed checkpoint header in {path}")
    body = raw[9:]
    if zlib.crc32(body) & 0xFFFFFFFF != expected:
        raise WALCorruptionError(f"checkpoint body in {path} failed its CRC")
    payload = json.loads(body.decode("utf-8"))
    if not isinstance(payload, dict) or "wal_offset" not in payload:
        raise WALCorruptionError(f"checkpoint in {path} is not a valid image")
    return payload

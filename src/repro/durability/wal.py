"""The write-ahead log: CRC-framed, append-only, torn-tail tolerant.

Framing is one record per line::

    <crc32 hex, 8 chars> <canonical JSON payload>\\n

Canonical JSON never contains a raw newline (``json.dumps`` escapes
them inside strings), so the line framing is unambiguous.  The CRC is
over the payload bytes; a record whose CRC does not match — or whose
line has no terminator — is *torn*.

A torn **final** record is the expected signature of a crash mid-append:
:meth:`WriteAheadLog.scan` stops cleanly before it and reports the torn
tail so recovery can truncate it (the record's transaction never
committed, by WAL ordering, so nothing is lost).  A torn record anywhere
*before* the tail means real corruption and raises
:class:`~repro.errors.WALCorruptionError`.

Crash injection: when the ``crash_points``
:class:`~repro.resilience.faults.FaultInjector` schedules a crash at the
``wal_append`` site, the log writes only a prefix of the framed record —
a torn final record, exactly what a real crash leaves — and raises
:class:`~repro.resilience.faults.SimulatedCrash`.  A replica mirrors the
primary's lines through the same :meth:`WriteAheadLog.append_line`, so
it dies the same way.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.durability.codec import canonical_dumps
from repro.errors import WALCorruptionError
from repro.resilience.faults import FaultInjector, SimulatedCrash

__all__ = ["WriteAheadLog"]


def _frame(record: Dict[str, Any]) -> bytes:
    payload = canonical_dumps(record).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"%08x %s\n" % (crc, payload)


class WriteAheadLog:
    """Append-only redo log with CRC framing and offset-based replay.

    A plain checkpoint stores a byte offset into this log rather than
    truncating it, so a checkpoint that later turns out unreadable still
    leaves the full redo history behind it (a compacting one truncates
    it through :meth:`reset`).
    """

    def __init__(
        self, path: Path, crash_points: Optional[FaultInjector] = None
    ) -> None:
        self.path = Path(path)
        self.crash_points = crash_points
        self._file = open(self.path, "ab")
        self.appended = 0
        # Flush calls actually issued — the group-commit amortization
        # metric (flushes per commit) reads this.
        self.flushes = 0
        # The durable frontier: byte offset (and appended-record count)
        # covered by the last flush.  This is the replication shipping
        # horizon — records past it are buffered only, so a crash could
        # still revoke them, and the WAL shipper must never send them
        # (the byte-granular twin of the group committer's
        # ``_flushed_seq`` publication point).
        self.durable_offset = self._file.tell()
        self.durable_seq = 0
        # Bumped by :meth:`reset` (log compaction).  Byte offsets are
        # only comparable within one generation; a replication cursor
        # carried across a bump is meaningless and forces a full resync.
        self.generation = 0
        # Latched by a simulated crash: a dead process writes nothing
        # more, so cleanup code unwinding through the SimulatedCrash
        # (e.g. a transaction rollback) must not reach the disk either.
        self.dead = False

    # -- writing ------------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        """Frame and buffer one record; may simulate a torn-write crash."""
        self.append_line(_frame(record))

    def append_line(self, line: bytes) -> None:
        """Buffer one pre-framed line, verbatim.

        Two callers: the durability manager, which composes row *run*
        records as framed bytes directly (they dominate the log, and the
        generic dict-encode path costs more than the engine work being
        logged), and a replica mirroring the primary's lines — its log
        must stay a byte prefix of the primary's.  Every call is one
        ``wal_append`` visit, exactly like :meth:`append`.
        """
        if self.dead:
            return
        injector = self.crash_points
        if injector is not None and injector.decide("wal_append") == "crash":
            # A crash mid-append leaves a prefix of the framed bytes on
            # disk: the torn final record recovery must tolerate.
            self._file.write(line[: max(1, len(line) // 2)])
            self._file.flush()
            self.dead = True
            raise SimulatedCrash(
                "simulated crash during WAL append", site="wal_append"
            )
        self._file.write(line)
        self.appended += 1

    def flush(self) -> None:
        if self.dead:
            return
        self.flushes += 1
        self._file.flush()
        self._mark_durable()

    def _mark_durable(self) -> None:
        """Publish the flushed frontier (never past a simulated death —
        a torn crash prefix is on disk but must not ship)."""
        if not self.dead:
            self.durable_offset = self._file.tell()
            self.durable_seq = self.appended

    def offset(self) -> int:
        """Current end-of-log byte offset (everything flushed first)."""
        self._file.flush()
        self._mark_durable()
        return self._file.tell()

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    # -- reading ------------------------------------------------------------

    def scan(
        self, from_offset: int = 0
    ) -> Tuple[List[Dict[str, Any]], int, bool]:
        """Decode records from ``from_offset`` to the end of the log.

        Returns ``(records, end_offset, torn_tail)`` where ``end_offset``
        is the offset just past the last intact record and ``torn_tail``
        reports whether trailing bytes past it had to be ignored.
        Corruption anywhere before the tail raises
        :class:`WALCorruptionError`.
        """
        self._file.flush()
        self._mark_durable()
        with open(self.path, "rb") as handle:
            handle.seek(from_offset)
            data = handle.read()
        records: List[Dict[str, Any]] = []
        offset = from_offset
        position = 0
        while position < len(data):
            newline = data.find(b"\n", position)
            if newline == -1:
                return records, offset, True  # unterminated tail
            line = data[position:newline]
            record = _decode_line(line)
            if record is None:
                # A bad record is crash-consistent only as the very last
                # line of the log.
                remainder = data[newline + 1 :]
                if remainder.strip(b"\n"):
                    raise WALCorruptionError(
                        f"WAL record at byte {offset} of {self.path} failed "
                        f"its CRC with further records after it"
                    )
                return records, offset, True
            records.append(record)
            position = newline + 1
            offset = from_offset + position
        return records, offset, False

    def truncate_to(self, offset: int) -> None:
        """Drop everything past ``offset`` (discarding a torn tail).

        The durable frontier is pulled back with the file: a shipper
        cursor past the new end now points at bytes that no longer
        exist, which its next pump detects as a full-resync condition
        rather than a silent gap.
        """
        self._file.flush()
        self._file.close()
        with open(self.path, "r+b") as handle:
            handle.truncate(offset)
        self._file = open(self.path, "ab")
        self.durable_offset = min(self.durable_offset, offset)

    def reset(self, epoch_sequence: int) -> None:
        """Compact: truncate to empty and stamp a new epoch record.

        Called by a compacting checkpoint *after* its image is
        installed.  The epoch record carries the checkpoint's sequence
        number, which is what makes compaction crash-safe without a
        cross-file atomic update: recovery trusts the checkpoint's
        recorded ``wal_offset`` unless the log *begins* with an epoch
        record naming that same checkpoint, in which case replay starts
        just past the marker (the log was compacted by the checkpoint it
        is being replayed against).  A crash before this call leaves the
        full log behind an image whose offset points at its end — also
        consistent.  The epoch write skips the crash-site consult: it is
        not a workload append, and simulated crashes fire only at the
        declared sites.
        """
        self._file.close()
        open(self.path, "wb").close()
        self._file = open(self.path, "ab")
        self._file.write(
            _frame({"op": "epoch", "sequence": epoch_sequence, "txn": None})
        )
        self._file.flush()
        self.appended += 1
        self.generation += 1
        self.durable_offset = self._file.tell()
        self.durable_seq = self.appended

    def head_record(self) -> Optional[Tuple[Dict[str, Any], int]]:
        """Decode the log's first framed record.

        Returns ``(record, end_offset)`` — the offset just past it — or
        None when the log is empty or its head is torn/corrupt.
        """
        self._file.flush()
        with open(self.path, "rb") as handle:
            head = handle.readline()
        if not head.endswith(b"\n"):
            return None
        record = _decode_line(head[:-1])
        if record is None:
            return None
        return record, len(head)

    def __repr__(self) -> str:
        return f"WriteAheadLog({self.path}, appended={self.appended})"


def _decode_line(line: bytes) -> Optional[Dict[str, Any]]:
    """One framed record, or None when the line is torn/corrupt."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        expected = int(line[:8], 16)
    except ValueError:
        return None
    payload = line[9:]
    if zlib.crc32(payload) & 0xFFFFFFFF != expected:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return record if isinstance(record, dict) else None

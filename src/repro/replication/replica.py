"""The read replica: a WAL-mirroring, continuously-recovering twin.

A :class:`Replica` owns its own database directory.  Its local WAL is a
**byte prefix mirror** of the primary's log (same framed lines, same
CRCs, same offsets modulo the resync base), which is what makes every
replication guarantee reduce to one already proven by the crash
differential: restart recovery is literally
:meth:`~repro.durability.manager.DurabilityManager.recover` over the
mirrored prefix, and bit-identity with the primary's committed prefix
falls out of replaying the identical bytes through the identical path.

That path is the manager's :class:`~repro.durability.redo.RedoStream`:
each mirrored record is fed to it in log order, so the replica shows
what recovery of its *resolved* prefix builds — never an open
transaction's writes, a rolled-back one's only together with its undo,
and a commit logged behind an open transaction only once that
transaction resolves.  Recovery of the mirror keeps the hold (the image
carries the replication base) and refuses local writes; promotion
finishes the stream and runs recovery's integrity pass.

Staleness is the paper's currency model: every unshipped or held WAL
record may flip one row of the replica's answer, so a replica
``records_behind`` records on a database of ``n`` rows serves reads
with the same ``u/n`` margin of error a statistical soft constraint
carries after ``u`` updates (Section 3.3).  The router compares that
margin against each query's ``max_staleness`` bound.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import api
from repro.api import SoftDB
from repro.durability.checkpoint import write_checkpoint
from repro.durability.manager import CHECKPOINT_NAME, WAL_NAME
from repro.durability.wal import _decode_line
from repro.errors import (
    PromotionError,
    ReplicaUnavailableError,
    ReplicationError,
    ReproError,
    ResyncRequiredError,
)
from repro.resilience.faults import FaultInjector, SimulatedCrash
from repro.softcon.currency import CurrencyModel
from repro.sql.ast import Statement

__all__ = ["Replica", "ReplicaLag"]


class ReplicaLag:
    """One replica's staleness snapshot, as of the last shipment."""

    __slots__ = ("bytes_behind", "records_behind", "margin")

    def __init__(
        self, bytes_behind: int, records_behind: int, margin: float
    ) -> None:
        self.bytes_behind = bytes_behind
        self.records_behind = records_behind
        self.margin = margin

    def __repr__(self) -> str:
        return (
            f"ReplicaLag(bytes={self.bytes_behind}, "
            f"records={self.records_behind}, margin={self.margin:.4f})"
        )


class Replica:
    """A read-only twin kept caught up by WAL shipping.

    Parameters
    ----------
    path:
        The replica's own directory (mirrored WAL + installed images).
    name:
        Display/routing name; defaults to the directory name.
    crash_points:
        Optional :class:`~repro.resilience.faults.FaultInjector` for the
        replica's own durability layer.  Mirrored records go through the
        same WAL append as the primary's, one ``wal_append`` visit each,
        so a scheduled crash kills the replica mid-stream with a torn
        final record — exactly what the primary-side crash suite
        inflicts.
    """

    def __init__(
        self,
        path: Any,
        name: Optional[str] = None,
        crash_points: Optional[FaultInjector] = None,
    ) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.name = name or f"replica-{self.path.name}"
        self.crash_points = crash_points
        # One mutex covers ingest, reads, and lifecycle: the shipper may
        # pump from one thread while readers query from others.
        self._mutex = threading.RLock()
        self.db: Optional[SoftDB] = None
        # Primary-stream offset corresponding to local WAL offset 0
        # (the resync base); persisted through the installed image.
        self._base = 0
        self.dead = False
        # Lag knowledge as of the last shipment (see note_lag).
        self._known_durable = 0
        self._records_behind = 0
        # Instrumentation.
        self.lines_received = 0
        self.duplicates = 0
        self.torn_frames = 0
        self.gap_rejects = 0
        self.restarts = 0

    # -- lifecycle -----------------------------------------------------------

    def install_resync(self, payload: Dict[str, Any], base: int) -> None:
        """Install a full primary image and restart streaming from ``base``.

        The payload is a primary ``DurabilityManager.image()``; it is
        rebased to local offset 0 (the mirror restarts empty) and the
        base is persisted inside the image's session state so a replica
        restart recovers it along with everything else.
        """
        with self._mutex:
            self._shut()
            payload = dict(payload)
            session = dict(payload["session"])
            session["replication_base"] = base
            payload["session"] = session
            payload["wal_offset"] = 0
            wal_path = self.path / WAL_NAME
            if wal_path.exists():
                wal_path.unlink()
            write_checkpoint(self.path / CHECKPOINT_NAME, payload)
            self._open()

    def _shut(self) -> None:
        if self.db is not None:
            self.db.durability.close()
            self.db = None

    def _open(self) -> None:
        """(Re)build the live stack from the directory: recovery over
        the mirrored prefix, which leaves unresolved work held."""
        self.db = SoftDB.open(self.path, crash_points=self.crash_points)
        self._base = self.db.durability.session_state.get(
            "replication_base", 0
        )
        self.dead = False

    def kill(self) -> None:
        """Abrupt death: the in-memory session is gone; only the
        mirrored log and the last installed image survive for
        :meth:`restart`."""
        with self._mutex:
            self.dead = True

    def restart(self) -> None:
        """Crash-recover from local state and resume streaming.

        Runs the standard recovery pipeline over the mirrored prefix —
        log-order redo, torn-tail truncation, storage verification; redo
        keeps holding what the stream has yet to resolve.  The
        acknowledged offset regresses to the intact mirrored prefix, so
        the shipper simply re-ships from there.
        """
        with self._mutex:
            self._shut()
            self._open()
            self.restarts += 1

    def close(self) -> None:
        with self._mutex:
            self.dead = True
            self._shut()

    def checkpoint(self) -> int:
        """Persist the applied state so a restart recovers without
        replaying the whole mirrored prefix.  Refused with a
        :class:`~repro.errors.TransactionError` while records are held
        behind an open transaction (the image would lose them)."""
        with self._mutex:
            self._require_up()
            return self.db.checkpoint()

    def promote(self, epoch: int, fence: Any) -> SoftDB:
        """Flip this replica into the cluster's writable primary.

        Promotion finishes the redo stream — held resolved records
        apply and the unresolved tail is dropped — and runs recovery's
        integrity pass, exactly as recovery of the mirrored prefix
        would, so the new primary starts from a transaction-consistent,
        verified state.  It stamps ``epoch`` into its WAL
        (a ``promote`` record), attaches the cluster ``fence`` so its
        own writes carry the new epoch, and flips read-write.

        Returns the now-writable :class:`~repro.api.SoftDB`; the caller
        (the promotion coordinator) hangs a fresh ``WalShipper`` off it
        and re-attaches the surviving replicas.
        """
        with self._mutex:
            self._require_up()
            manager = self.db.durability
            if epoch <= manager.promotion_epoch:
                raise PromotionError(
                    f"replica {self.name!r} already saw promotion epoch "
                    f"{manager.promotion_epoch}; refusing stale epoch "
                    f"{epoch}"
                )
            manager.stamp_promotion(epoch, fence)
            return self.db

    # -- the stream ----------------------------------------------------------

    def ack(self) -> int:
        """The primary-stream offset this replica has durably mirrored
        (the shipper's pull cursor — authoritative, gap-free)."""
        with self._mutex:
            self._require_up()
            return self._base + self.db.durability.wal.offset()

    def receive(self, offset: int, data: bytes) -> int:
        """Ingest one shipment of framed WAL bytes at stream ``offset``.

        Returns the count of bytes accepted (complete, CRC-intact
        frames mirrored and dispatched).  Continuity is enforced, never
        assumed: an overlap with already-mirrored bytes is skipped as a
        duplicate (late/re-shipped packets), a torn or corrupt frame
        rejects the remainder for re-shipment, and a gap — bytes from
        beyond the mirrored prefix — raises
        :class:`~repro.errors.ResyncRequiredError` rather than applying
        a stream with a hole in it.
        """
        with self._mutex:
            self._require_up()
            wal = self.db.durability.wal
            expected = self._base + wal.offset()
            if offset > expected:
                self.gap_rejects += 1
                raise ResyncRequiredError(
                    f"replica {self.name!r} mirrored up to stream offset "
                    f"{expected} but was offered {offset}: gap in the "
                    f"shipped log"
                )
            if offset < expected:
                overlap = expected - offset
                if overlap >= len(data):
                    self.duplicates += 1
                    return 0
                data = data[overlap:]
            position = 0
            while True:
                newline = data.find(b"\n", position)
                if newline == -1:
                    if position < len(data):
                        self.torn_frames += 1
                    break
                line = data[position : newline + 1]
                record = _decode_line(line[:-1])
                if record is None:
                    self.torn_frames += 1
                    break
                # Mirror the line, then feed its record to redo.  A
                # record that cannot be applied means the twin forked;
                # serving reads from it would break bit-identity, so the
                # replica takes itself out of rotation.
                try:
                    wal.append_line(line)
                    self.lines_received += 1
                    self.db.durability.feed(record)
                except SimulatedCrash:
                    self.dead = True
                    raise
                except ReproError as error:
                    self.dead = True
                    raise ReplicationError(
                        f"replica {self.name!r} failed to apply the "
                        f"shipped log: {error}"
                    ) from error
                position = newline + 1
            wal.flush()
            return position

    @property
    def rows_applied(self) -> int:
        """Row changes redone since this replica's stack was opened."""
        return self.db.durability.redo.replayed if self.db else 0

    # -- staleness -----------------------------------------------------------

    def note_lag(self, durable_offset: int, records_behind: int) -> None:
        """Shipper callback: the primary's durable frontier and how many
        records sit between it and our ack."""
        with self._mutex:
            self._known_durable = durable_offset
            self._records_behind = records_behind

    def lag(self) -> ReplicaLag:
        with self._mutex:
            if self.db is None or self.dead:
                return ReplicaLag(0, 0, 1.0)
            local = self._base + self.db.durability.wal.offset()
            return ReplicaLag(
                max(0, self._known_durable - local),
                self._behind(),
                self.currency_bound(),
            )

    def currency_bound(self) -> float:
        """This replica's staleness as a currency margin of error.

        Each unshipped or held record may flip one row's contribution
        to an answer, so the bound is the paper's ``u/n`` arithmetic
        with ``u`` = records behind and ``n`` = the replica's row count
        — computed by the same :class:`CurrencyModel` that prices
        soft-constraint staleness.
        """
        with self._mutex:
            if self.db is None or self.dead:
                return 1.0
            catalog = self.db.database.catalog
            rows = sum(
                catalog.table(name).row_count
                for name in catalog.table_names()
            )
            model = CurrencyModel(rows)
            model.record_update(self._behind())
            return model.margin_of_error

    def _behind(self) -> int:
        """Records not yet visible: unshipped plus held for redo."""
        return self._records_behind + self.db.durability.redo.held

    # -- reads ---------------------------------------------------------------

    def execute(self, sql: str, statement: Optional[Statement] = None):
        """Run one read-only statement against the replica's state.

        Until promotion, anything but a query raises
        :class:`~repro.errors.ReadOnlyReplicaError` (the mirror refuses
        it, see ``DurabilityManager.refuse_mirror``): replicas apply the
        primary's log verbatim, and a local write would fork the twin.
        A router that already parsed ``sql`` passes the ``statement``.
        """
        if statement is None:
            statement = api.parse_statement(sql)
        with self._mutex:
            self._require_up()
            return self.db.run_statement(statement, sql)

    def query(self, sql: str) -> List[Dict[str, Any]]:
        return self.execute(sql).rows

    # -- internals -----------------------------------------------------------

    def _require_up(self) -> None:
        if self.dead or self.db is None:
            raise ReplicaUnavailableError(
                f"replica {self.name!r} is down"
            )

    def __repr__(self) -> str:
        state = "dead" if self.dead else ("up" if self.db else "detached")
        return (
            f"Replica({self.name}, {state}, base={self._base}, "
            f"held={self.db.durability.redo.held if self.db else 0})"
        )

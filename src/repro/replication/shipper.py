"""The primary-side WAL shipper and its unreliable-network link.

Shipping is **pull-cursor** style: each pump asks the replica how far
it has durably mirrored (:meth:`Replica.ack`) and ships the byte range
``[ack, durable_offset)`` of the primary's log — never past
``durable_offset``, the WAL's flushed frontier, so a record a crash
could still revoke cannot reach a replica (the byte-granular analogue
of the group committer publishing ``_flushed_seq``).  Chunks are cut at
frame boundaries; the replica re-validates every CRC and its own offset
continuity, so the link is free to misbehave.

And misbehave it does: a :class:`ReplicationLink` consults a
:class:`~repro.resilience.faults.FaultInjector` at the ``net_frame``
site on every shipment.  ``drop`` loses the shipment (the cursor never
advanced — it is simply re-shipped), ``truncate`` delivers a torn
prefix (the replica accepts the intact frames and rejects the tail),
``delay`` parks the shipment and delivers it late (by then a duplicate,
which the replica's continuity check ignores), and ``sever`` cuts the
link until :meth:`ReplicationLink.restore` — a partition of one
replica.

Two conditions force a **full resync** instead of incremental shipping:
a log-generation mismatch (the primary compacted its WAL, so the
replica's cursor points into a log that no longer exists) and an ack
beyond the durable frontier.  Either way the shipper rebuilds the
replica from a fresh primary image rather than shipping across a gap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.errors import (
    ReplicaUnavailableError,
    ReplicationError,
    ResyncRequiredError,
)
from repro.replication.replica import Replica
from repro.resilience.faults import FaultInjector

__all__ = ["ReplicationLink", "WalShipper"]


class ReplicationLink:
    """The simulated network pipe between the shipper and one replica."""

    def __init__(
        self, replica: Replica, injector: Optional[FaultInjector] = None
    ) -> None:
        self.replica = replica
        self.injector = injector
        self.severed = False
        # Primary log generation this link's cursor is valid for; -1
        # forces the initial full resync at attach.
        self.generation = -1
        self._parked: List[Tuple[int, bytes]] = []
        self.shipments = 0
        self.dropped = 0
        self.truncated = 0
        self.delayed = 0
        self.late_deliveries = 0

    def sever(self) -> None:
        """Cut the link (partition): every shipment raises until
        :meth:`restore`."""
        self.severed = True

    def restore(self) -> None:
        self.severed = False

    @property
    def up(self) -> bool:
        """Unsevered, to a live replica."""
        replica = self.replica
        return not (self.severed or replica.dead or replica.db is None)

    def deliver(self, offset: int, data: bytes) -> int:
        """Ship one chunk through the (possibly faulty) link.

        Returns the bytes the replica accepted; raises
        :class:`~repro.errors.ReplicaUnavailableError` when the link is
        (or just became) severed.
        """
        if self.severed:
            raise ReplicaUnavailableError(
                f"link to {self.replica.name!r} is severed"
            )
        self.shipments += 1
        kind = (
            self.injector.decide("net_frame")
            if self.injector is not None
            else None
        )
        if kind == "sever":
            self.severed = True
            raise ReplicaUnavailableError(
                f"link to {self.replica.name!r} severed mid-shipment"
            )
        if kind == "drop":
            self.dropped += 1
            return 0
        if kind == "delay":
            self.delayed += 1
            self._parked.append((offset, data))
            return 0
        if kind == "truncate":
            self.truncated += 1
            data = data[: max(1, len(data) // 2)]
        accepted = self.replica.receive(offset, data)
        self._flush_parked()
        return accepted

    def _flush_parked(self) -> None:
        """Deliver delayed shipments late.

        By now their byte ranges overlap what the replica already
        mirrored, so its continuity check skips them as duplicates —
        the test that late packets cannot double-apply.  A late packet
        arriving at a dead replica, or one whose offset no longer fits
        the stream at all, just vanishes (as lost packets do).
        """
        parked, self._parked = self._parked, []
        for offset, data in parked:
            self.late_deliveries += 1
            try:
                self.replica.receive(offset, data)
            except (ReplicaUnavailableError, ResyncRequiredError):
                pass

    def __repr__(self) -> str:
        state = "severed" if self.severed else "up"
        return (
            f"ReplicationLink({self.replica.name}, {state}, "
            f"shipments={self.shipments})"
        )


class WalShipper:
    """Streams the primary's durable WAL prefix to attached replicas."""

    def __init__(
        self,
        db,
        injector: Optional[FaultInjector] = None,
        max_chunk: int = 64 * 1024,
    ) -> None:
        if db.durability is None:
            raise ReplicationError(
                "replication needs a durable primary; construct it with "
                "SoftDB.open(path)"
            )
        self.db = db
        self.injector = injector
        self.max_chunk = max_chunk
        self.links: Dict[str, ReplicationLink] = {}
        self.pumps = 0
        self.resyncs = 0
        self.bytes_shipped = 0

    # -- membership ----------------------------------------------------------

    def attach(self, replica: Replica) -> ReplicationLink:
        """Bootstrap ``replica`` from a full primary image and start
        shipping to it.  Requires a statement boundary on the primary
        (the bootstrap image must be transaction-consistent)."""
        link = ReplicationLink(replica, self.injector)
        self.links[replica.name] = link
        self.full_resync(link)
        return link

    def detach(self, replica: Replica) -> None:
        self.links.pop(replica.name, None)

    # -- shipping ------------------------------------------------------------

    def pump(self) -> Dict[str, Union[int, str]]:
        """One shipment round to every attached replica.

        Returns per-replica status: bytes accepted (0 = caught up),
        ``"resync"`` when a full resync was performed, or
        ``"unavailable"`` when the replica is dead / the link severed
        (a partitioned replica just falls behind; nothing is lost).
        """
        self.pumps += 1
        out: Dict[str, Union[int, str]] = {}
        for name, link in self.links.items():
            try:
                out[name] = self.pump_one(link)
            except ReplicaUnavailableError:
                out[name] = "unavailable"
        return out

    def pump_one(self, link: ReplicationLink) -> Union[int, str]:
        """One shipment attempt to one replica."""
        replica = link.replica
        if replica.dead or replica.db is None:
            raise ReplicaUnavailableError(
                f"replica {replica.name!r} is down"
            )
        wal = self.db.durability.wal
        durable = wal.offset()  # flush + publish the durable frontier
        ack = replica.ack()
        if link.generation != wal.generation or ack > durable:
            # The primary compacted (or otherwise reset) its log since
            # this replica last shipped — byte offsets are meaningless
            # across generations — or a truncation raced a lagging
            # replica, whose cursor points at bytes that no longer
            # exist.  Never ship across the gap: rebuild from an image.
            self.full_resync(link)
            return "resync"
        if ack == durable:
            replica.note_lag(durable, 0)
            return 0
        chunk = self._read_chunk(wal, ack, durable)
        try:
            accepted = link.deliver(ack, chunk)
        except ResyncRequiredError:
            self.full_resync(link)
            return "resync"
        self.bytes_shipped += accepted
        shipped_to = replica.ack()
        replica.note_lag(
            durable, self._count_records(wal, shipped_to, durable)
        )
        return accepted

    def pump_until_synced(self, max_rounds: int = 1000) -> bool:
        """Pump until every replica acknowledges the durable frontier;
        False when ``max_rounds`` was not enough (a dead or partitioned
        replica, or a fault schedule that kills every shipment).

        Sync is judged by comparing acks against the frontier, never by
        a round of zero-byte statuses — a shipment the link tore or
        dropped entirely also accepts zero bytes without being caught
        up."""
        wal = self.db.durability.wal
        for _ in range(max_rounds):
            self.pump()
            durable = wal.offset()
            if all(
                link.up
                and link.generation == wal.generation
                and link.replica.ack() == durable
                for link in self.links.values()
            ):
                return True
        return False

    def full_resync(self, link: ReplicationLink) -> None:
        """Rebuild one replica from a transaction-consistent primary
        image and rebase its cursor to the current end of log (raises
        :class:`~repro.errors.TransactionError` inside a transaction)."""
        if link.severed:
            raise ReplicaUnavailableError(
                f"cannot resync {link.replica.name!r} over a severed link"
            )
        payload, generation = self.db.durability.image()
        base = payload["wal_offset"]
        link.replica.install_resync(payload, base)
        link.generation = generation
        link.replica.note_lag(base, 0)
        self.resyncs += 1

    # -- lag reporting -------------------------------------------------------

    def refresh_lag(self, link: ReplicationLink):
        """Recompute one replica's lag against the *current* durable
        frontier without shipping anything.

        The router calls this before placing a read: lag recorded at
        the last pump is stale the moment the primary commits again, and
        a staleness bound enforced against stale lag data is no bound at
        all.  Returns the fresh :class:`~repro.replication.replica.
        ReplicaLag`, or None when the replica cannot currently be
        routed to (dead, severed, or its cursor needs a resync)."""
        replica = link.replica
        if not link.up:
            return None
        wal = self.db.durability.wal
        durable = wal.offset()
        ack = replica.ack()
        if link.generation != wal.generation or ack > durable:
            return None
        replica.note_lag(durable, self._count_records(wal, ack, durable))
        return replica.lag()

    # -- internals -----------------------------------------------------------

    def _read_chunk(self, wal, start: int, end: int) -> bytes:
        """Bytes ``[start, end)`` of the log, cut at a frame boundary
        and capped near ``max_chunk``."""
        with open(wal.path, "rb") as handle:
            handle.seek(start)
            data = handle.read(end - start)
        if len(data) > self.max_chunk:
            cut = data.rfind(b"\n", 0, self.max_chunk)
            if cut == -1:
                # A single frame larger than the chunk: extend to its
                # terminator rather than shipping a guaranteed-torn one.
                cut = data.find(b"\n")
            if cut != -1:
                data = data[: cut + 1]
        return data

    def _count_records(self, wal, start: int, end: int) -> int:
        """Committed-stream records between two offsets (frame count)."""
        if end <= start:
            return 0
        with open(wal.path, "rb") as handle:
            handle.seek(start)
            return handle.read(end - start).count(b"\n")

    def __repr__(self) -> str:
        return (
            f"WalShipper(replicas={sorted(self.links)}, "
            f"pumps={self.pumps}, resyncs={self.resyncs})"
        )

"""Automatic primary failover: leases, election, fencing, rejoin.

Three pieces turn the PR-9 replication fleet into a self-healing
cluster, each deterministic and driven by the same virtual clock and
seeded fault injector as the rest of the resilience stack:

**Failure detection** is lease-based.  The primary periodically sends a
CRC-framed heartbeat (the same ``crc32 json\\n`` framing as WAL
records) through a :class:`HeartbeatChannel` that consults the fault
injector at the ``heartbeat`` site — so a chaos schedule can drop,
tear, delay, sever, or asymmetrically partition the control plane
independently of the data plane.  Each intact heartbeat renews a lease
at the :class:`FailureDetector`; when the lease runs out on the
:class:`~repro.resilience.guards.VirtualClock`, the primary is
*suspected*.  No wall time ever passes: tests advance the clock by
hand, so every detection is replayable from a seed.

**Promotion** elects the most-caught-up reachable replica — highest
:meth:`~repro.replication.replica.Replica.ack` among live, unsevered
links — and finishes its redo stream and runs recovery's integrity
pass: held resolved work applies and the unresolved tail is dropped,
exactly as crash recovery would.  The
cluster's :class:`ClusterFence` epoch is bumped **before** the new
primary accepts its first write, stamped into its WAL as a ``promote``
record, and carried on every commit record it logs from then on.
Surviving replicas re-attach to the new primary's
:class:`~repro.replication.shipper.WalShipper` by full resync — byte
offsets from the old primary's log are meaningless against the new
one's, and resync is the one path already proven to rebase cursors
safely (the PR-9 generation machinery).

**Fencing** is what makes the asymmetric partition — primary alive and
serving, heartbeats lost, a replica promoted behind its back — safe.
The deposed primary still holds the shared fence object but its own
``promotion_epoch`` now lags the fence's; every durability point
(transaction begin *and* commit) re-checks, so all its writes fail
with a typed :class:`~repro.errors.FencedError` before any of them can
fork history.  Because the rejection happens before the commit record
is durable, ``FencedError`` is a *known-outcome* failure: clients may
re-issue even non-idempotent statements against the new primary.  The
deposed node rejoins the cluster as a replica via
:meth:`~repro.replication.replica.Replica.install_resync`.

Cluster-level acknowledgement is semi-synchronous: a statement is
*cluster-acked* once it is durable on the primary **and** at least one
replica has mirrored it.  That is the durability bar the chaos suite
holds promotions to — a cluster-acked commit must survive any single
node loss, because a full copy exists somewhere the election can reach.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.durability.wal import _decode_line, _frame
from repro.errors import (
    FencedError,
    PromotionError,
    ReplicaUnavailableError,
)
from repro.replication.replica import Replica
from repro.replication.shipper import ReplicationLink, WalShipper
from repro.resilience.faults import FaultInjector
from repro.resilience.guards import VirtualClock

__all__ = [
    "ClusterFence",
    "FailoverCluster",
    "FailureDetector",
    "HeartbeatChannel",
]


class ClusterFence:
    """The cluster's single promotion-epoch authority.

    One instance is shared by every node of a cluster.  The promotion
    coordinator calls :meth:`advance` exactly once per promotion —
    before the new primary accepts a write — and every durability
    point on every fenced node calls :meth:`check` with the epoch that
    node last held.  A node whose epoch lags the fence is deposed; its
    writes raise :class:`~repro.errors.FencedError` rather than forking
    history.
    """

    def __init__(self, epoch: int = 0) -> None:
        self.epoch = epoch
        self.advances = 0
        self.rejections = 0

    def advance(self) -> int:
        """Bump the cluster epoch; returns the new epoch."""
        self.epoch += 1
        self.advances += 1
        return self.epoch

    def check(self, holder_epoch: int, node: str = "") -> None:
        """Raise :class:`~repro.errors.FencedError` when ``holder_epoch``
        lags the cluster's — the caller is a deposed primary."""
        if holder_epoch < self.epoch:
            self.rejections += 1
            raise FencedError(
                f"node {node or '?'} holds promotion epoch "
                f"{holder_epoch} but the cluster is at {self.epoch}: "
                f"writes are fenced; rejoin as a replica",
                epoch=holder_epoch,
                cluster_epoch=self.epoch,
            )

    def __repr__(self) -> str:
        return (
            f"ClusterFence(epoch={self.epoch}, "
            f"rejections={self.rejections})"
        )


class FailureDetector:
    """Virtual-clock lease table: one lease per node, renewed by intact
    heartbeats, expired by the clock alone.

    The detector never *acts* — it only answers :meth:`expired`.  The
    promotion coordinator owns the decision to fail over, so a flapping
    lease (renewed by a delayed heartbeat after it ran out, before any
    promotion happened) is just a counted non-event, never a rewind.
    """

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        lease_timeout: float = 1.0,
    ) -> None:
        if lease_timeout <= 0:
            raise PromotionError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        self.clock = clock if clock is not None else VirtualClock()
        self.lease_timeout = lease_timeout
        # node -> lease expiry instant on the virtual clock.
        self.leases: Dict[str, float] = {}
        self.renewals = 0
        self.flaps = 0
        self.stale_rejected = 0

    def observe(self, node: str, epoch: int, min_epoch: int = 0) -> bool:
        """One intact heartbeat from ``node`` carrying ``epoch``.

        Heartbeats from an epoch the cluster has moved past are ignored
        (a deposed primary's pulse must never look like health); a
        renewal that lands after its lease already ran out is counted
        as a flap.  Returns whether the lease was renewed.
        """
        if epoch < min_epoch:
            self.stale_rejected += 1
            return False
        now = self.clock.now
        expiry = self.leases.get(node)
        if expiry is not None and expiry <= now:
            self.flaps += 1
        self.leases[node] = now + self.lease_timeout
        self.renewals += 1
        return True

    def expired(self, node: str) -> bool:
        """Whether ``node``'s lease has run out (or never existed)."""
        expiry = self.leases.get(node)
        return expiry is None or expiry <= self.clock.now

    def remaining(self, node: str) -> float:
        """Virtual seconds of lease left (0.0 when expired/unknown)."""
        expiry = self.leases.get(node)
        if expiry is None:
            return 0.0
        return max(0.0, expiry - self.clock.now)

    def forget(self, node: str) -> None:
        self.leases.pop(node, None)

    def snapshot(self) -> Dict[str, Any]:
        now = self.clock.now
        return {
            "now": now,
            "lease_timeout": self.lease_timeout,
            "leases": {
                node: max(0.0, expiry - now)
                for node, expiry in sorted(self.leases.items())
            },
            "renewals": self.renewals,
            "flaps": self.flaps,
            "stale_rejected": self.stale_rejected,
        }

    def __repr__(self) -> str:
        return (
            f"FailureDetector(leases={len(self.leases)}, "
            f"timeout={self.lease_timeout}, flaps={self.flaps})"
        )


class HeartbeatChannel:
    """The control-plane pipe: framed heartbeats, faults at the
    ``heartbeat`` site.

    Mirrors :class:`~repro.replication.shipper.ReplicationLink` for the
    data plane, with two channel-wide states a chaos schedule can latch:
    ``severed`` (both directions cut) and ``partitioned`` (the
    ``asym_partition`` kind — the *control* direction is cut while data
    still flows; the canonical split-brain inducer).  ``drop`` loses
    one heartbeat, ``truncate`` tears its frame (the CRC check discards
    it), ``delay`` parks it for late delivery with the next send.
    """

    def __init__(self, injector: Optional[FaultInjector] = None) -> None:
        self.injector = injector
        self.severed = False
        self.partitioned = False
        self._parked: List[bytes] = []
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.torn = 0
        self.delayed = 0
        self.late_deliveries = 0
        self.partition_losses = 0

    def sever(self) -> None:
        self.severed = True

    def partition(self) -> None:
        """Cut the control direction only (asymmetric partition)."""
        self.partitioned = True

    def heal(self) -> None:
        self.severed = False
        self.partitioned = False

    def send(self, record: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Frame and ship one heartbeat; returns the records that
        actually arrived (the fresh one and/or previously parked ones,
        oldest first — a delayed heartbeat rides the next delivery)."""
        self.sent += 1
        if self.severed or self.partitioned:
            if self.partitioned:
                self.partition_losses += 1
            else:
                self.dropped += 1
            return []
        frame = _frame(record)
        kind = (
            self.injector.decide("heartbeat")
            if self.injector is not None
            else None
        )
        if kind == "sever":
            self.severed = True
            self.dropped += 1
            return []
        if kind == "asym_partition":
            self.partitioned = True
            self.partition_losses += 1
            return []
        if kind == "drop":
            self.dropped += 1
            return []
        if kind == "delay":
            self.delayed += 1
            self._parked.append(frame)
            return []
        if kind == "truncate":
            frame = frame[: max(1, len(frame) // 2)]
        arrived: List[bytes] = []
        parked, self._parked = self._parked, []
        for late in parked:
            self.late_deliveries += 1
            arrived.append(late)
        arrived.append(frame)
        out: List[Dict[str, Any]] = []
        for raw in arrived:
            decoded = _decode_line(raw.rstrip(b"\n"))
            if decoded is None:
                self.torn += 1
                continue
            self.delivered += 1
            out.append(decoded)
        return out

    def snapshot(self) -> Dict[str, Any]:
        return {
            "severed": self.severed,
            "partitioned": self.partitioned,
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "torn": self.torn,
            "delayed": self.delayed,
            "late_deliveries": self.late_deliveries,
            "partition_losses": self.partition_losses,
        }

    def __repr__(self) -> str:
        state = (
            "severed"
            if self.severed
            else ("partitioned" if self.partitioned else "up")
        )
        return f"HeartbeatChannel({state}, sent={self.sent})"


class FailoverCluster:
    """The promotion coordinator: one primary, its shipper, a lease.

    Wires the pieces together into the failure-handling loop a real
    cluster runs: the primary heartbeats through the channel, the
    detector ages leases on the virtual clock, and when the lease runs
    out :meth:`promote` elects the most-caught-up reachable replica,
    finishes its redo, bumps the fence, and re-attaches the
    survivors.  Writes go through :meth:`execute`, which tracks
    *cluster acknowledgement* (durable on the primary and mirrored by
    at least one replica) — the durability bar the chaos suite holds
    every promotion to.
    """

    def __init__(
        self,
        primary_db: Any,
        primary_name: str = "primary",
        injector: Optional[FaultInjector] = None,
        clock: Optional[VirtualClock] = None,
        lease_timeout: float = 1.0,
        heartbeat_interval: float = 0.25,
        fence: Optional[ClusterFence] = None,
    ) -> None:
        if clock is None:
            clock = injector.clock if injector is not None else VirtualClock()
        self.clock = clock
        self.injector = injector
        self.fence = fence if fence is not None else ClusterFence()
        self.detector = FailureDetector(clock, lease_timeout)
        self.channel = HeartbeatChannel(injector)
        self.heartbeat_interval = heartbeat_interval
        self.primary_db = primary_db
        self.primary_name = primary_name
        self.primary_replica: Optional[Replica] = None
        self.shipper = WalShipper(primary_db, injector=injector)
        # The founding primary adopts the fence at the current epoch so
        # a later promotion deposes it (epoch lag -> FencedError).
        primary_db.durability.fence = self.fence
        primary_db.durability.promotion_epoch = self.fence.epoch
        self.deposed: List[Tuple[str, Any]] = []
        self.promotions: List[Dict[str, Any]] = []
        self.heartbeat_seq = 0
        self.primary_crashed = False
        # Statement tags acked at cluster level (semi-sync).
        self.cluster_acked: List[Any] = []
        self.local_only: List[Any] = []
        # Fill the founding lease so time zero is not a spurious expiry.
        self.detector.observe(primary_name, self.fence.epoch)

    # -- membership ----------------------------------------------------------

    def attach(self, replica: Replica) -> ReplicationLink:
        return self.shipper.attach(replica)

    @property
    def epoch(self) -> int:
        return self.fence.epoch

    # -- control plane -------------------------------------------------------

    def heartbeat(self) -> bool:
        """The primary sends one lease renewal; returns whether its
        lease was actually renewed (faults may eat the heartbeat, and a
        crashed primary has no pulse at all)."""
        if self.primary_crashed:
            return False
        self.heartbeat_seq += 1
        record = {
            "op": "heartbeat",
            "node": self.primary_name,
            "epoch": self.primary_epoch(),
            "seq": self.heartbeat_seq,
        }
        renewed = False
        for delivered in self.channel.send(record):
            if self.detector.observe(
                delivered.get("node", ""),
                delivered.get("epoch", -1),
                min_epoch=self.fence.epoch,
            ):
                renewed = renewed or (
                    delivered.get("node") == self.primary_name
                )
        return renewed

    def tick(self, advance: float = 0.0, heartbeats: int = 1) -> None:
        """Advance virtual time and let the primary attempt heartbeats
        — the cluster's idle loop, collapsed for tests."""
        for _ in range(max(1, heartbeats)):
            if advance:
                self.clock.sleep(advance / max(1, heartbeats))
            self.heartbeat()

    def primary_suspected(self) -> bool:
        return self.detector.expired(self.primary_name)

    def primary_epoch(self) -> int:
        durability = self.primary_db.durability
        return durability.promotion_epoch if durability is not None else -1

    # -- data plane ----------------------------------------------------------

    def execute(self, sql: str, tag: Any = None):
        """One write through the cluster: execute on the primary, ship,
        and record whether the statement reached cluster-ack (durable
        on the primary *and* mirrored by >= 1 replica).

        ``tag`` labels the statement for the ack ledgers; the chaos
        suite tags every write and later checks each ledger entry
        against the promoted survivor's state.
        """
        if self.primary_crashed:
            raise ReplicaUnavailableError(
                f"primary {self.primary_name!r} is down"
            )
        result = self.primary_db.execute(sql)
        if tag is not None:
            if self.replicate():
                self.cluster_acked.append(tag)
            else:
                self.local_only.append(tag)
        else:
            self.replicate()
        return result

    def replicate(self) -> bool:
        """One shipping round; True when >= 1 replica has mirrored the
        primary's whole durable frontier (semi-sync ack)."""
        durability = self.primary_db.durability
        if durability is None:
            return False
        self.shipper.pump()
        wal = durability.wal
        durable = wal.offset()
        return any(
            link.up
            and link.generation == wal.generation
            and link.replica.ack() >= durable
            for link in self.shipper.links.values()
        )

    # -- failure handling ----------------------------------------------------

    def kill_primary(self) -> None:
        """Abrupt primary death: the process is gone; its directory (and
        the shared fence) survive for a later :meth:`rejoin_deposed`."""
        if self.primary_db.durability is not None:
            self.primary_db.durability.close()
        self.primary_crashed = True

    def electable(self) -> List[ReplicationLink]:
        """Links promotion may consider: live replica, unsevered link."""
        return [link for link in self.shipper.links.values() if link.up]

    def promote(self, force: bool = False) -> Dict[str, Any]:
        """Fail over: elect, drain, fence, re-attach.

        Refuses while the primary's lease is still live (unless
        ``force``) — promotion must never race a healthy primary.
        Returns a promotion report (epoch, winner, ack spread, virtual
        detection-to-writable duration).
        """
        started = self.clock.now
        if not force and not self.primary_suspected():
            raise PromotionError(
                f"primary {self.primary_name!r} still holds its lease "
                f"({self.detector.remaining(self.primary_name):.3f}s "
                f"left); refusing to promote behind a live primary"
            )
        candidates = self.electable()
        if not candidates:
            raise PromotionError(
                "no reachable live replica to promote: every link is "
                "severed, dead, or detached"
            )
        acks = {
            link.replica.name: link.replica.ack() for link in candidates
        }
        winner = max(candidates, key=lambda link: acks[link.replica.name])
        replica = winner.replica
        epoch = self.fence.advance()
        try:
            new_db = replica.promote(epoch, self.fence)
        except PromotionError:
            raise
        except Exception as error:  # drain failed: no writable primary
            raise PromotionError(
                f"elected replica {replica.name!r} failed to finish its "
                f"redo stream: {error}"
            ) from error
        old_shipper = self.shipper
        old_name = self.primary_name
        old_db = self.primary_db
        self.shipper = WalShipper(new_db, injector=self.injector)
        survivors = []
        unreachable = []
        for link in old_shipper.links.values():
            if link.replica is replica:
                continue
            if not link.up:
                # Partitioned/dead survivor: the partition (a property
                # of the old link) does not vanish because membership
                # changed.  It rejoins by a plain attach() once
                # reachable — full resync rebases it.
                unreachable.append(link.replica.name)
                continue
            try:
                self.shipper.attach(link.replica)
                survivors.append(link.replica.name)
            except ReplicaUnavailableError:
                unreachable.append(link.replica.name)
        # Crashed or merely deposed, the old primary's directory (and
        # db handle) are kept around so rejoin_deposed can bring the
        # node back as a replica.
        self.deposed.append((old_name, old_db))
        self.primary_db = new_db
        self.primary_name = replica.name
        self.primary_replica = replica
        self.primary_crashed = False
        self.detector.forget(old_name)
        self.detector.observe(replica.name, epoch)
        self.channel.heal()
        report = {
            "epoch": epoch,
            "winner": replica.name,
            "deposed": old_name,
            "acks": acks,
            "survivors": survivors,
            "unreachable": unreachable,
            "virtual_duration": self.clock.now - started,
        }
        self.promotions.append(report)
        return report

    def maybe_failover(self) -> Optional[Dict[str, Any]]:
        """The watchdog step: promote iff the lease has run out and a
        candidate exists; None when the primary still looks healthy."""
        if not self.primary_suspected():
            return None
        return self.promote()

    def rejoin_deposed(self, name: Optional[str] = None) -> Replica:
        """Bring a deposed (or crashed old) primary back as a replica.

        The node's own history past the last shipped point is
        irrelevant now — some of it may even be fenced-off divergence —
        so it rejoins through the one safe path: a full resync image
        from the current primary (:meth:`Replica.install_resync`, via
        the shipper's attach).
        """
        if not self.deposed:
            raise PromotionError("no deposed primary to rejoin")
        if name is None:
            index = len(self.deposed) - 1
        else:
            for index, (node, _db) in enumerate(self.deposed):
                if node == name:
                    break
            else:
                raise PromotionError(f"no deposed primary named {name!r}")
        node, old_db = self.deposed.pop(index)
        old_db.durability.close()
        replica = Replica(old_db.durability.path, name=f"rejoined-{node}")
        self.shipper.attach(replica)
        return replica

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "epoch": self.fence.epoch,
            "primary": self.primary_name,
            "primary_crashed": self.primary_crashed,
            "replicas": sorted(self.shipper.links),
            "promotions": len(self.promotions),
            "cluster_acked": len(self.cluster_acked),
            "local_only": len(self.local_only),
            "detector": self.detector.snapshot(),
            "channel": self.channel.snapshot(),
        }

    def __repr__(self) -> str:
        return (
            f"FailoverCluster(primary={self.primary_name!r}, "
            f"epoch={self.fence.epoch}, "
            f"replicas={len(self.shipper.links)})"
        )

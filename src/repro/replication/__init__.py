"""WAL-shipped read replicas: scale-out with staleness-as-currency.

The paper's currency model (Section 3.3) prices how far a *data
characterization* may have drifted: after ``u`` updates against ``n``
rows, trust it with margin ``u/n``.  A read replica lagging the primary
by ``u`` committed records is exactly such a stale-but-bounded
characterization of the primary's state — so replica read routing
reuses the same arithmetic that governs soft-constraint trust, instead
of inventing a second staleness story.

The pieces:

* :class:`~repro.replication.shipper.WalShipper` — primary-side,
  pull-cursor shipping of framed WAL bytes, never past the durable
  (flushed) frontier;
* :class:`~repro.replication.replica.Replica` — a byte-prefix WAL
  mirror plus streaming resolved-transaction apply through the
  recovery code path, which is what makes the replica *bit-identical*
  to the primary's committed prefix (the crash differential's
  fingerprint verifies it) and makes replica restart literally crash
  recovery;
* :class:`~repro.replication.shipper.ReplicationLink` — the simulated
  unreliable network, consulting the fault injector's ``net_frame``
  site (drop / truncate / delay / sever);
* :class:`~repro.concurrency.routing.RoutedSession` — writes to the
  primary, reads to replicas under a per-query ``max_staleness``
  currency bound, primary fallback when every replica is too stale or
  down (graceful degradation, never a silently-wrong answer).

The replication chaos differential (``pytest -m replication``) kills,
partitions, and restarts replicas mid-stream under frame faults and
requires fingerprint bit-identity plus typed-errors-only behavior.

On top of the fleet sits automatic failover
(:mod:`~repro.replication.failover`): lease-based failure detection
over a fault-injectable ``heartbeat`` site, election of the
most-caught-up reachable replica, a drain through the recovery replay
path, and epoch fencing that turns a deposed primary's writes into
typed :class:`~repro.errors.FencedError` rejections.  The failover
chaos suite (``pytest -m failover``) kills and partitions primaries
mid-commit-storm and requires zero cluster-acked commits lost and
fingerprint bit-identity across every promotion.
"""

from repro.replication.failover import (
    ClusterFence,
    FailoverCluster,
    FailureDetector,
    HeartbeatChannel,
)
from repro.replication.replica import Replica, ReplicaLag
from repro.replication.shipper import ReplicationLink, WalShipper

__all__ = [
    "ClusterFence",
    "FailoverCluster",
    "FailureDetector",
    "HeartbeatChannel",
    "Replica",
    "ReplicaLag",
    "ReplicationLink",
    "WalShipper",
]

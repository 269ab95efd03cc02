"""RoutedSession placement rules: writes to the primary, reads to
replicas under a currency bound, graceful degradation everywhere else.
"""

import pytest

from repro.api import SoftDB
from repro.concurrency import RoutedSession
from repro.errors import ReadOnlyReplicaError, TransactionError
from repro.replication import Replica, WalShipper

pytestmark = pytest.mark.replication

PROBE = "SELECT id, v FROM t ORDER BY id"


@pytest.fixture
def fleet(tmp_path):
    primary = SoftDB.open(tmp_path / "primary")
    primary.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    primary.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    shipper = WalShipper(primary)
    replicas = [Replica(tmp_path / f"r{n}") for n in range(2)]
    for replica in replicas:
        shipper.attach(replica)
    assert shipper.pump_until_synced()
    yield primary, shipper, replicas
    for replica in replicas:
        replica.close()
    primary.close(checkpoint=False)


def test_writes_route_to_primary_only(fleet):
    primary, shipper, replicas = fleet
    routed = RoutedSession(primary, shipper)
    assert routed.execute("INSERT INTO t VALUES (3, 30)") == 1
    assert routed.last_route == ("primary", "write", 0.0)
    assert routed.writes == 1
    # The replicas have not been pumped: the write exists only on the
    # primary until shipping catches them up.
    for replica in replicas:
        assert replica.query(PROBE) == [
            {"id": 1, "v": 10},
            {"id": 2, "v": 20},
        ]
    assert shipper.pump_until_synced()
    for replica in replicas:
        assert {"id": 3, "v": 30} in replica.query(PROBE)


def test_reads_round_robin_across_synced_replicas(fleet):
    primary, shipper, replicas = fleet
    routed = RoutedSession(primary, shipper, max_staleness=0.0)
    served = [routed.execute(PROBE) and routed.last_route for _ in range(4)]
    names = [route[1] for route in served]
    assert all(route[0] == "replica" for route in served)
    assert set(names) == {replica.name for replica in replicas}
    assert names[:2] == names[2:], "round-robin order should repeat"
    assert routed.reads_on_replica == 4
    assert routed.reads_on_primary == 0


def test_strict_bound_degrades_stale_replicas_to_primary(fleet):
    primary, shipper, replicas = fleet
    routed = RoutedSession(primary, shipper, max_staleness=0.0)
    # An unpumped write makes every replica stale *right now* — the
    # router must notice against the live frontier, not the lag recorded
    # at the last pump (which still says zero).
    primary.execute("INSERT INTO t VALUES (4, 40)")
    got = routed.execute(PROBE)
    assert routed.last_route == ("primary", "fallback", 0.0)
    assert {"id": 4, "v": 40} in got.rows
    assert routed.degraded == len(replicas)
    # Once shipped, replicas serve again.
    assert shipper.pump_until_synced()
    assert {"id": 4, "v": 40} in routed.execute(PROBE).rows
    assert routed.last_route[0] == "replica"


def test_loose_bound_serves_bounded_stale_snapshot(fleet):
    primary, shipper, replicas = fleet
    frozen = replicas[0].query(PROBE)
    primary.execute("INSERT INTO t VALUES (5, 50)")
    routed = RoutedSession(primary, shipper, max_staleness=1.0)
    assert routed.query(PROBE) == frozen
    where, name, margin = routed.last_route
    assert where == "replica"
    assert 0.0 < margin <= 1.0
    # Per-query override tightens the bound below this staleness.
    assert routed.query(PROBE, max_staleness=0.0) == primary.query(PROBE)
    assert routed.last_route[0] == "primary"


def test_commit_held_behind_open_transaction_counts_as_staleness(fleet):
    """A commit logged behind a still-open transaction is not visible on
    a replica until that transaction resolves.  The replica is byte-for-
    byte caught up meanwhile, so only the held records keep a strict
    bound from being served stale rows there, and keep the replica from
    checkpointing."""
    primary, shipper, replicas = fleet
    routed = RoutedSession(primary, shipper, max_staleness=0.0)
    writer, committer = primary.session(), primary.session()
    writer.execute("BEGIN")
    writer.execute("INSERT INTO t VALUES (3, 30)")
    committer.execute("INSERT INTO t VALUES (4, 40)")
    assert shipper.pump_until_synced()
    for replica in replicas:
        assert replica.ack() == primary.durability.wal.durable_offset
        assert {"id": 4, "v": 40} not in replica.query(PROBE)
        assert replica.lag().records_behind > 0
        # An image now would lose the held records.
        with pytest.raises(TransactionError):
            replica.checkpoint()
    got = routed.execute(PROBE)
    assert routed.last_route == ("primary", "fallback", 0.0)
    assert {"id": 4, "v": 40} in got.rows
    writer.execute("COMMIT")
    shipper.pump()
    got = routed.execute(PROBE)
    assert routed.last_route[0] == "replica"
    assert {"id": 3, "v": 30} in got.rows
    assert {"id": 4, "v": 40} in got.rows


def test_dead_replica_skipped_until_restart(fleet):
    primary, shipper, replicas = fleet
    routed = RoutedSession(primary, shipper, max_staleness=0.0)
    replicas[0].kill()
    for _ in range(3):
        routed.execute(PROBE)
        assert routed.last_route[:2] == ("replica", replicas[1].name)
    replicas[0].restart()
    assert shipper.pump_until_synced()
    names = set()
    for _ in range(3):
        routed.execute(PROBE)
        names.add(routed.last_route[1])
    assert replicas[0].name in names


def test_all_replicas_down_falls_back_to_primary(fleet):
    primary, shipper, replicas = fleet
    for replica in replicas:
        replica.kill()
    routed = RoutedSession(primary, shipper, max_staleness=1.0)
    assert routed.query(PROBE) == primary.query(PROBE)
    assert routed.last_route == ("primary", "fallback", 0.0)


def test_snapshot_reports_per_endpoint_route_counts(fleet):
    primary, shipper, replicas = fleet
    routed = RoutedSession(primary, shipper, max_staleness=0.0)
    routed.execute("INSERT INTO t VALUES (7, 70)")
    assert shipper.pump_until_synced()
    for _ in range(4):
        routed.execute(PROBE)
    snapshot = routed.snapshot()
    counts = snapshot["route_counts"]
    # One write on the primary, four reads split round-robin.
    assert counts["primary"] == 1
    for replica in replicas:
        assert counts[replica.name] == 2
    assert sum(counts.values()) == 5
    assert snapshot["rebinds"] == 0
    assert snapshot["last_degradation"] is None


def test_snapshot_records_last_degradation_reason(fleet):
    primary, shipper, replicas = fleet
    routed = RoutedSession(primary, shipper, max_staleness=0.0)
    # A fresh unshipped write makes every replica too stale: the read
    # falls back and the snapshot names the margin breach.
    primary.execute("INSERT INTO t VALUES (8, 80)")
    routed.execute(PROBE)
    snapshot = routed.snapshot()
    assert snapshot["route_counts"]["primary"] == 1
    assert "margin" in snapshot["last_degradation"]
    assert "exceeds bound" in snapshot["last_degradation"]
    # A dead replica degrades with an unavailability reason instead.
    assert shipper.pump_until_synced()
    for replica in replicas:
        replica.kill()
    routed.execute(PROBE)
    assert "unavailable" in routed.snapshot()["last_degradation"]


def test_rebind_swaps_write_target_after_failover(fleet, tmp_path):
    """After a promotion the coordinator hands the session the new
    primary and its shipper; writes land there, reads fan out over the
    re-attached survivors, and the ledgers persist across the swap."""
    primary, shipper, replicas = fleet
    routed = RoutedSession(primary, shipper, max_staleness=0.0)
    routed.execute("INSERT INTO t VALUES (5, 50)")
    # Promote replicas[0] by hand: the routing layer only cares that
    # the write target and link set changed.
    assert shipper.pump_until_synced()
    from repro.replication import WalShipper
    from repro.replication.failover import ClusterFence

    fence = ClusterFence()
    fence.advance()
    promoted = replicas[0].promote(1, fence)
    new_shipper = WalShipper(promoted)
    new_shipper.attach(replicas[1])
    routed.rebind(promoted, new_shipper)
    assert routed.execute("INSERT INTO t VALUES (6, 60)") == 1
    assert routed.writes == 2
    assert routed.snapshot()["rebinds"] == 1
    assert {"id": 6, "v": 60} in promoted.query(PROBE)
    assert new_shipper.pump_until_synced()
    got = routed.execute(PROBE)
    assert routed.last_route[:2] == ("replica", replicas[1].name)
    assert {"id": 6, "v": 60} in got.rows
    # The ledger accumulated across the rebind: primary counts include
    # pre-failover routes.
    assert routed.snapshot()["route_counts"]["primary"] == 2


def test_replica_rejects_writes_with_typed_error(fleet):
    primary, shipper, replicas = fleet
    with pytest.raises(ReadOnlyReplicaError):
        replicas[0].execute("INSERT INTO t VALUES (9, 90)")
    with pytest.raises(ReadOnlyReplicaError):
        replicas[0].execute("CREATE TABLE u (x INT)")
    # The router never trips over this: it sends writes to the primary.
    routed = RoutedSession(primary, shipper)
    assert routed.execute("DELETE FROM t WHERE id = 2") == 1

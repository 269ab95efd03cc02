"""Replication chaos differential: WAL-shipped replicas must stay
bit-identical twins under every failure the link and the fleet can
produce — or fail with a typed error, never a silently wrong answer.

The workload is the crash suite's seeded action list (DML, DDL, soft
constraints, summary tables, checkpoints), so the bit-identity oracle
is the same :func:`fingerprint` the crash differential trusts.  On top
of it this suite inflicts:

* a lossy link — seeded ``net_frame`` drop / truncate / delay faults on
  every shipment;
* replica death mid-stream (a scheduled ``wal_append`` crash tears the
  mirrored log's final record) followed by restart-as-crash-recovery;
* a partition (severed link) healed later;
* primary WAL compaction racing a lagging replica, which must force a
  full resync rather than ship across the discontinuity.

After every scenario the converged replica's fingerprint must equal the
primary's, and every routed read along the way must be correct at its
snapshot or raise a :class:`~repro.errors.ReproError` subclass.
"""

import pytest

from repro.api import SoftDB
from repro.concurrency.routing import RoutedSession
from repro.errors import ReplicaUnavailableError, ReproError
from repro.replication import Replica, WalShipper
from repro.resilience.faults import FaultInjector, SimulatedCrash
from tests.crash.test_crash_differential import (
    SEEDS,
    apply_action,
    build_workload,
    fingerprint,
)

pytestmark = pytest.mark.replication


def make_pair(tmp_path, replicas=1, injector=None, crash_points=None):
    """A durable primary with ``replicas`` attached twins; the network
    ``injector`` and each replica's ``crash_points`` stay separate."""
    primary = SoftDB.open(tmp_path / "primary")
    shipper = WalShipper(primary, injector=injector, max_chunk=256)
    fleet = []
    for n in range(replicas):
        replica = Replica(
            tmp_path / f"replica{n}",
            crash_points=crash_points[n] if crash_points else None,
        )
        shipper.attach(replica)
        fleet.append(replica)
    return primary, shipper, fleet


def teardown(primary, fleet):
    for replica in fleet:
        replica.close()
    primary.close(checkpoint=False)


@pytest.mark.parametrize("seed", SEEDS)
def test_streamed_replicas_are_bit_identical_twins(tmp_path, seed):
    """Fault-free steady state: pump after every action, converge, and
    the full crash-suite fingerprint matches on every replica."""
    primary, shipper, fleet = make_pair(tmp_path, replicas=2)
    for action in build_workload(seed):
        apply_action(primary, action)
        shipper.pump()
    assert shipper.pump_until_synced()
    reference = fingerprint(primary)
    for replica in fleet:
        assert fingerprint(replica.db) == reference
        lag = replica.lag()
        assert lag.bytes_behind == 0
        assert lag.records_behind == 0
        assert replica.currency_bound() == 0.0
    teardown(primary, fleet)


@pytest.mark.parametrize("seed", SEEDS)
def test_lossy_link_converges_bit_identical(tmp_path, seed):
    """Seeded drop/truncate/delay faults on every shipment: the pull
    cursor re-ships, torn frames are rejected not applied, late packets
    are ignored as duplicates — and the twin still converges exactly."""
    injector = FaultInjector(seed=seed)
    injector.add("net_frame", "drop", probability=0.2)
    injector.add("net_frame", "truncate", probability=0.2)
    injector.add("net_frame", "delay", probability=0.15)
    primary, shipper, fleet = make_pair(tmp_path, injector=injector)
    replica = fleet[0]
    for action in build_workload(seed):
        apply_action(primary, action)
        shipper.pump()
    injector.pause()
    assert shipper.pump_until_synced()
    assert fingerprint(replica.db) == fingerprint(primary)
    link = shipper.links[replica.name]
    assert link.dropped + link.truncated + link.delayed > 0, (
        "the fault schedule never fired; the scenario tested nothing"
    )
    if link.truncated:
        assert replica.torn_frames > 0
    # Faults may delay convergence but never corrupt: no gap was ever
    # silently accepted.
    assert replica.gap_rejects == 0
    teardown(primary, fleet)


@pytest.mark.parametrize("seed", SEEDS)
def test_replica_killed_mid_stream_restarts_bit_identical(tmp_path, seed):
    """A scheduled crash kills the replica mid-mirror (torn final
    record).  While dead it answers with typed errors only; restart runs
    real crash recovery over the mirrored prefix and re-ships the rest."""
    crash_points = FaultInjector(seed=seed).add(
        "wal_append", "crash", at_visit=12
    )
    primary, shipper, fleet = make_pair(tmp_path, crash_points=[crash_points])
    replica = fleet[0]
    crashed = False
    for action in build_workload(seed):
        apply_action(primary, action)
        try:
            shipper.pump()
        except SimulatedCrash:
            crashed = True
    assert crashed, "the replica crash schedule never fired"
    assert replica.dead
    # Dead replica: unavailability is typed at both layers.
    assert shipper.pump()[replica.name] == "unavailable"
    with pytest.raises(ReplicaUnavailableError):
        replica.execute("SELECT id FROM emp")
    assert replica.currency_bound() == 1.0
    replica.restart()
    assert replica.restarts == 1
    assert shipper.pump_until_synced()
    assert fingerprint(replica.db) == fingerprint(primary)
    teardown(primary, fleet)


@pytest.mark.parametrize("seed", SEEDS)
def test_partitioned_replica_falls_behind_then_catches_up(tmp_path, seed):
    """A severed link is a partition: shipments fail typed, nothing is
    lost, resync over the partition is refused, and after restore the
    replica converges to the full fingerprint."""
    primary, shipper, fleet = make_pair(tmp_path)
    replica = fleet[0]
    link = shipper.links[replica.name]
    actions = build_workload(seed)
    mid = len(actions) // 2
    for action in actions[:mid]:
        apply_action(primary, action)
        shipper.pump()
    link.sever()
    for action in actions[mid:]:
        apply_action(primary, action)
        assert shipper.pump()[replica.name] == "unavailable"
    with pytest.raises(ReplicaUnavailableError):
        shipper.full_resync(link)
    link.restore()
    assert shipper.pump_until_synced()
    assert fingerprint(replica.db) == fingerprint(primary)
    teardown(primary, fleet)


@pytest.mark.parametrize("seed", SEEDS)
def test_compaction_racing_lagging_replica_forces_resync(tmp_path, seed):
    """The primary compacts its WAL while a replica lags: its cursor
    now points into a log that no longer exists.  The next pump must
    rebuild the replica from a fresh image — never ship across the
    generation discontinuity."""
    primary, shipper, fleet = make_pair(tmp_path)
    replica = fleet[0]
    actions = build_workload(seed)
    for action in actions[:8]:
        apply_action(primary, action)
        shipper.pump()
    assert shipper.pump_until_synced()
    # The replica now lags: the primary keeps going unshipped, then
    # compacts away the very bytes the replica's cursor points at.
    for action in actions[8:]:
        apply_action(primary, action)
    primary.checkpoint(compact=True)
    resyncs_before = shipper.resyncs
    assert shipper.pump()[replica.name] == "resync"
    assert shipper.resyncs == resyncs_before + 1
    assert shipper.pump()[replica.name] == 0
    assert fingerprint(replica.db) == fingerprint(primary)
    # The resynced replica survives its own restart (the rebased image
    # plus empty mirror recover cleanly).
    replica.restart()
    assert shipper.pump_until_synced()
    assert fingerprint(replica.db) == fingerprint(primary)
    teardown(primary, fleet)


@pytest.mark.parametrize("seed", SEEDS)
def test_routed_reads_correct_at_snapshot_or_typed(tmp_path, seed):
    """Routing under chaos: a faulty link plus a mid-run replica crash.
    Every read placed with ``max_staleness=0.0`` must equal the
    primary's current answer (served by a caught-up replica or by
    primary fallback); nothing may escape except typed errors."""
    injector = FaultInjector(seed=seed)
    injector.add("net_frame", "drop", probability=0.15)
    injector.add("net_frame", "truncate", probability=0.15)
    crash_points = FaultInjector(seed=seed).add(
        "wal_append", "crash", at_visit=20
    )
    primary, shipper, fleet = make_pair(
        tmp_path,
        replicas=2,
        injector=injector,
        crash_points=[crash_points, None],
    )
    routed = RoutedSession(primary, shipper, max_staleness=0.0)
    probe = "SELECT id, salary FROM emp ORDER BY id"
    for action in build_workload(seed):
        apply_action(primary, action)
        try:
            shipper.pump()
        except SimulatedCrash:
            pass
        if "emp" not in primary.database.catalog.table_names():
            continue
        expected = primary.query(probe)
        try:
            got = routed.query(probe)
        except ReproError:
            continue  # typed degradation is allowed; wrong answers are not
        assert got == expected, (
            f"routed read diverged from the primary (route "
            f"{routed.last_route})"
        )
    # The crashed replica comes back; the fleet converges to twins.
    # (The scheduled crash may fire during this very convergence if the
    # lossy link kept the fatal record from shipping inside the loop.)
    injector.pause()
    try:
        synced = shipper.pump_until_synced()
    except SimulatedCrash:
        synced = False
    if fleet[0].dead:
        fleet[0].restart()
        synced = shipper.pump_until_synced()
    assert synced
    reference = fingerprint(primary)
    for replica in fleet:
        assert fingerprint(replica.db) == reference
    snapshot = routed.snapshot()
    assert snapshot["reads_on_replica"] + snapshot["reads_on_primary"] > 0
    teardown(primary, fleet)


@pytest.mark.parametrize("seed", SEEDS)
def test_stale_read_is_correct_at_its_own_snapshot(tmp_path, seed):
    """With a loose bound a lagging replica may serve — and its answer
    must be exactly its own (bounded-stale) snapshot, with the route and
    margin reported, not a half-applied hybrid."""
    primary, shipper, fleet = make_pair(tmp_path)
    replica = fleet[0]
    for action in build_workload(seed):
        apply_action(primary, action)
        shipper.pump()
    assert shipper.pump_until_synced()
    probe = "SELECT id, salary FROM emp ORDER BY id"
    frozen = replica.query(probe)
    # The primary moves on; the replica is not pumped.
    primary.execute("INSERT INTO emp VALUES (9001, 1500)")
    routed = RoutedSession(primary, shipper, max_staleness=1.0)
    got = routed.query(probe)
    assert got == frozen
    assert got != primary.query(probe)
    where, name, margin = routed.last_route
    assert where == "replica" and name == replica.name
    assert 0.0 < margin <= 1.0
    # The same read under a strict bound degrades to the primary.
    assert routed.query(probe, max_staleness=0.0) == primary.query(probe)
    assert routed.last_route[0] == "primary"
    teardown(primary, fleet)

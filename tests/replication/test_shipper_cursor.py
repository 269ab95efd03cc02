"""WAL ``scan``/``truncate_to``/``reset`` versus a concurrent shipper
cursor (ISSUE 9, satellite 3).

The shipping protocol leans on three WAL invariants:

* the **durable frontier** (``durable_offset``) never covers bytes a
  crash could revoke — in particular never a torn final record;
* **truncation** (recovery discarding a torn tail, or a compacting
  reset) pulls the frontier back / bumps the generation, so a cursor
  pointing past the new end is *detected* — the shipper full-resyncs
  instead of shipping across a silent gap;
* the replica's **continuity check** is authoritative: overlaps are
  duplicates (skipped), unterminated or CRC-bad frames reject the
  remainder for re-shipment, and a gap is a typed
  :class:`~repro.errors.ResyncRequiredError`, never an apply.
"""

import pytest

from repro.api import SoftDB
from repro.durability.wal import WriteAheadLog, _frame
from repro.errors import ResyncRequiredError
from repro.replication import Replica, WalShipper
from repro.resilience.faults import FaultInjector, SimulatedCrash

pytestmark = pytest.mark.replication


def record(n):
    return {"op": "noop", "n": n, "txn": None}


# -- WAL-level invariants -----------------------------------------------------


def test_durable_offset_never_covers_torn_tail(tmp_path):
    crash_points = FaultInjector().add("wal_append", "crash", at_visit=3)
    wal = WriteAheadLog(tmp_path / "wal.log", crash_points)
    wal.append(record(1))
    wal.append(record(2))
    wal.flush()
    durable = wal.durable_offset
    assert durable == wal.offset()
    # Die mid-append: a torn prefix reaches the disk, but the durable
    # frontier — the shipping horizon — must not advance over it.
    with pytest.raises(SimulatedCrash):
        wal.append_line(_frame(record(3)))
    assert wal.dead
    wal.flush()
    assert wal.durable_offset == durable
    assert wal.durable_seq == 2
    wal.close()
    # A fresh scan sees exactly the durable prefix plus the torn tail.
    reopened = WriteAheadLog(tmp_path / "wal.log")
    records, end, torn = reopened.scan(0)
    assert [r["n"] for r in records] == [1, 2]
    assert end == durable
    assert torn
    reopened.close()


def test_truncate_to_pulls_durable_frontier_back(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    boundaries = []
    for n in range(3):
        wal.append(record(n))
        boundaries.append(wal.offset())
    assert wal.durable_offset == boundaries[-1]
    wal.truncate_to(boundaries[1])
    # A shipper cursor at boundaries[2] now points past the durable
    # frontier — the ack-beyond-durable resync condition.
    assert wal.durable_offset == boundaries[1]
    records, end, torn = wal.scan(0)
    assert [r["n"] for r in records] == [0, 1]
    assert end == boundaries[1]
    assert not torn
    wal.close()


def test_reset_bumps_generation_and_stamps_epoch(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.append(record(1))
    wal.flush()
    assert wal.generation == 0
    wal.reset(epoch_sequence=42)
    assert wal.generation == 1
    head = wal.head_record()
    assert head is not None
    epoch, end = head
    assert epoch == {"op": "epoch", "sequence": 42, "txn": None}
    # The epoch marker is itself durable immediately: a cursor rebased
    # to the new generation may ship from offset 0 right away.
    assert wal.durable_offset == end
    records, _end, torn = wal.scan(0)
    assert records == [epoch]
    assert not torn
    wal.close()


# -- cursor-level behavior ----------------------------------------------------


@pytest.fixture
def pair(tmp_path):
    primary = SoftDB.open(tmp_path / "primary")
    primary.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    shipper = WalShipper(primary, max_chunk=128)
    replica = Replica(tmp_path / "replica")
    shipper.attach(replica)
    yield primary, shipper, replica
    replica.close()
    primary.close(checkpoint=False)


def test_gap_shipment_is_typed_rejection_not_an_apply(pair):
    primary, shipper, replica = pair
    primary.execute("INSERT INTO t VALUES (1, 10)")
    assert shipper.pump_until_synced()
    applied = replica.rows_applied
    with pytest.raises(ResyncRequiredError):
        replica.receive(replica.ack() + 7, b"deadbeef bytes from beyond\n")
    assert replica.gap_rejects == 1
    assert replica.rows_applied == applied, "a gapped shipment applied"


def test_duplicate_shipment_is_skipped_not_reapplied(pair):
    primary, shipper, replica = pair
    base = shipper.links[replica.name].replica._base
    primary.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    assert shipper.pump_until_synced()
    applied = replica.rows_applied
    # Re-ship the entire already-mirrored range verbatim (what a delayed
    # packet delivered late looks like).
    wal = primary.durability.wal
    with open(wal.path, "rb") as handle:
        handle.seek(base)
        data = handle.read(wal.durable_offset - base)
    assert data
    assert replica.receive(base, data) == 0
    assert replica.duplicates == 1
    assert replica.rows_applied == applied
    assert replica.query("SELECT id FROM t ORDER BY id") == [
        {"id": 1},
        {"id": 2},
    ]


def test_torn_frame_mid_shipment_rejected_then_reshipped(pair):
    """A truncated delivery keeps its intact frames, rejects the torn
    one, and the cursor protocol re-ships the remainder to convergence."""
    primary, shipper, replica = pair
    injector = FaultInjector(seed=0)
    injector.add("net_frame", "truncate", every_nth=1, limit=1)
    link = shipper.links[replica.name]
    link.injector = injector
    for n in range(8):
        primary.execute(f"INSERT INTO t VALUES ({n + 10}, {n})")
    assert shipper.pump_until_synced()
    assert link.truncated == 1
    assert replica.torn_frames >= 1
    assert replica.gap_rejects == 0
    assert replica.query("SELECT count(*) AS c FROM t") == [{"c": 8}]


def test_primary_truncation_racing_cursor_forces_resync(pair):
    """Recovery-style ``truncate_to`` on the primary strands the
    replica's ack beyond the durable frontier; the shipper must detect
    ack > durable and rebuild — a silent gap would fork the twin."""
    primary, shipper, replica = pair
    primary.execute("INSERT INTO t VALUES (1, 10)")
    assert shipper.pump_until_synced()
    wal = primary.durability.wal
    end_before = wal.offset()
    primary.execute("INSERT INTO t VALUES (2, 20)")
    assert shipper.pump_until_synced()
    assert replica.ack() > end_before
    wal.truncate_to(end_before)
    resyncs = shipper.resyncs
    assert shipper.pump()[replica.name] == "resync"
    assert shipper.resyncs == resyncs + 1
    # The resync image carries the primary's live state (including the
    # truncated-away-but-applied row): the twins agree again.
    assert shipper.pump()[replica.name] == 0
    assert replica.query("SELECT id FROM t ORDER BY id") == [
        {"id": 1},
        {"id": 2},
    ]


def test_compaction_reset_invalidates_cursor_via_generation(pair):
    primary, shipper, replica = pair
    primary.execute("INSERT INTO t VALUES (1, 10)")
    assert shipper.pump_until_synced()
    link = shipper.links[replica.name]
    generation_before = link.generation
    primary.checkpoint(compact=True)
    assert primary.durability.wal.generation == generation_before + 1
    assert shipper.pump()[replica.name] == "resync"
    assert link.generation == generation_before + 1
    assert shipper.pump()[replica.name] == 0
    # Post-compaction increments ship normally in the new generation.
    primary.execute("INSERT INTO t VALUES (2, 20)")
    assert shipper.pump()[replica.name] > 0
    assert replica.query("SELECT id FROM t ORDER BY id") == [
        {"id": 1},
        {"id": 2},
    ]


def test_compaction_inside_promotion_window_forces_resync(tmp_path):
    """ISSUE 10, satellite (c): a ``checkpoint(compact=True)`` firing
    inside the promotion window — after the epoch bump, before a
    lagging survivor re-attaches — must force that cursor into a full
    resync.  Gap-shipping across the epoch bump would hand the replica
    a stream whose offsets belong to a dead log generation."""
    from repro.replication.failover import ClusterFence

    primary = SoftDB.open(tmp_path / "primary")
    primary.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    shipper = WalShipper(primary, max_chunk=128)
    winner = Replica(tmp_path / "winner", name="winner")
    lagger = Replica(tmp_path / "lagger", name="lagger")
    shipper.attach(winner)
    shipper.attach(lagger)
    primary.execute("INSERT INTO t VALUES (1, 10)")
    assert shipper.pump_until_synced()
    # The lagger partitions; the primary moves on, then dies.
    shipper.links["lagger"].sever()
    primary.execute("INSERT INTO t VALUES (2, 20)")
    shipper.pump()
    primary.close(checkpoint=False)
    # Promotion: the winner drains through recovery and becomes the
    # primary of a fresh shipper.
    fence = ClusterFence()
    promoted = winner.promote(fence.advance(), fence)
    new_shipper = WalShipper(promoted, max_chunk=128)
    # Inside the promotion window: compact before the lagger is back.
    promoted.checkpoint(compact=True)
    promoted.execute("INSERT INTO t VALUES (3, 30)")
    # The lagger heals and re-attaches.  Its cursor is doubly stale —
    # old primary's offsets, pre-compaction generation — so the only
    # legal path is the attach-time full resync; incremental shipping
    # from its old ack would be a gap-ship across the epoch bump.
    resyncs_before = new_shipper.resyncs
    new_shipper.attach(lagger)
    assert new_shipper.resyncs == resyncs_before + 1
    assert new_shipper.pump_until_synced()
    assert lagger.gap_rejects == 0, "a gapped shipment reached the lagger"
    assert lagger.query("SELECT id FROM t ORDER BY id") == [
        {"id": 1},
        {"id": 2},
        {"id": 3},
    ]
    # The promoted primary's epoch survived its own compaction: the
    # lagger's image carries it too.
    assert promoted.durability.promotion_epoch == 1
    assert lagger.db.durability.promotion_epoch == 1
    lagger.close()
    winner.close()


def test_generation_check_precedes_ack_comparison_after_promotion(tmp_path):
    """Even when the byte offsets happen to look compatible, a cursor
    from another log generation must resync: the generation check runs
    before any ack arithmetic, so no pathological offset coincidence
    can gap-ship across a compaction inside the promotion window."""
    primary = SoftDB.open(tmp_path / "primary")
    primary.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    shipper = WalShipper(primary)
    replica = Replica(tmp_path / "replica", name="replica")
    link = shipper.attach(replica)
    primary.execute("INSERT INTO t VALUES (1, 10)")
    assert shipper.pump_until_synced()
    generation_before = link.generation
    primary.checkpoint(compact=True)
    # The compacted log is much shorter: the replica's ack now exceeds
    # nothing (offset arithmetic alone might even look shippable), but
    # the generation mismatch decides first.
    assert primary.durability.wal.generation == generation_before + 1
    assert shipper.pump()[replica.name] == "resync"
    assert replica.gap_rejects == 0
    replica.close()
    primary.close(checkpoint=False)


def test_scan_sees_exactly_what_the_cursor_shipped(pair):
    """The replica's local ``scan`` decodes byte-identical records to
    the primary's log over the shipped range — the prefix-mirror claim
    at the record level, cheap enough to assert directly."""
    primary, shipper, replica = pair
    base = replica._base
    for n in range(5):
        primary.execute(f"INSERT INTO t VALUES ({n}, {n})")
    assert shipper.pump_until_synced()
    primary_records, _, _ = primary.durability.wal.scan(base)
    replica_records, _, _ = replica.db.durability.wal.scan(0)
    assert replica_records == primary_records

"""Fault injection: deterministic scheduling, retry, detection, recovery.

Exercises the site/kind vocabulary every spec is checked against, the
injector's scheduling semantics, the page read/write retry
machinery (transient faults, torn-read healing, persistent corruption),
fail-before-mutate DML atomicity, and the index corruption → quarantine →
rebuild-from-heap recovery path including the optimizer's degradation to
a sequential scan while the index is out.
"""

import pytest

from repro import SoftDB
from repro.errors import (
    ExecutionError,
    IndexCorruptionError,
    PageCorruptionError,
    TransientIOError,
)
from repro.resilience.faults import (
    SITE_KINDS,
    BackoffPolicy,
    FaultInjector,
    FaultSpec,
)

ALL_KINDS = sorted({kind for kinds in SITE_KINDS.values() for kind in kinds})
CRASH_SITES = [site for site, kinds in SITE_KINDS.items() if "crash" in kinds]


def _small_db() -> SoftDB:
    db = SoftDB()
    db.execute("CREATE TABLE t (k INT, v INT)")
    db.database.insert_many("t", [(n, n * 10) for n in range(400)])
    db.runstats_all()
    return db


class TestVocabulary:
    @pytest.mark.parametrize(
        "site, kind",
        [
            (site, kind)
            for site in SITE_KINDS
            for kind in ALL_KINDS
            if kind not in SITE_KINDS[site]
        ],
    )
    def test_pair_outside_the_table_is_refused(self, site, kind):
        with pytest.raises(ExecutionError):
            FaultSpec(site, kind, every_nth=1)
        with pytest.raises(ExecutionError):
            FaultInjector().add(site, kind, every_nth=1)

    def test_every_pair_in_the_table_is_accepted(self):
        for site, kinds in SITE_KINDS.items():
            for kind in kinds:
                FaultSpec(site, kind, every_nth=1)

    def test_decide_on_unknown_site_is_typed(self):
        with pytest.raises(ExecutionError):
            FaultInjector().decide("bogus")

    def test_at_visit_fires_exactly_once(self):
        injector = FaultInjector().add("wal_append", "crash", at_visit=3)
        decisions = [injector.decide("wal_append") for _ in range(8)]
        assert decisions == [None, None, "crash", None, None, None, None, None]
        assert injector.injected == {("wal_append", "crash"): 1}

    def test_paused_injector_still_counts_crash_site_visits(self):
        injector = FaultInjector().add("page_flush", "crash", every_nth=1)
        injector.pause()
        for site in CRASH_SITES:
            assert injector.decide(site) is None
            assert injector.decide(site) is None
        assert {site: injector.visits[site] for site in CRASH_SITES} == {
            site: 2 for site in CRASH_SITES
        }
        assert injector.injected == {}
        injector.resume()
        assert injector.decide("page_flush") == "crash"


class TestScheduling:
    def test_spec_validation(self):
        with pytest.raises(ExecutionError):
            FaultSpec("nonsense", "transient", probability=0.5)
        with pytest.raises(ExecutionError):
            FaultSpec("page_read", "nonsense", probability=0.5)
        with pytest.raises(ExecutionError):
            FaultSpec("page_read", "transient", probability=1.5)
        with pytest.raises(ExecutionError):
            FaultSpec("page_read", "transient", every_nth=0)
        with pytest.raises(ExecutionError):
            FaultSpec("wal_append", "crash", at_visit=0)
        with pytest.raises(ExecutionError):
            FaultSpec("page_read", "transient")  # no cadence at all
        with pytest.raises(ExecutionError):
            BackoffPolicy(max_attempts=0)

    def test_same_seed_same_fault_sequence(self):
        def sequence(seed):
            injector = FaultInjector(seed=seed).add(
                "page_read", "transient", probability=0.3
            )
            return [injector.decide("page_read") for _ in range(200)]

        assert sequence(42) == sequence(42)
        assert sequence(42) != sequence(43)

    def test_every_nth_cadence_and_limit(self):
        injector = FaultInjector().add(
            "page_read", "transient", every_nth=3, limit=2
        )
        decisions = [injector.decide("page_read") for _ in range(12)]
        assert decisions == [
            None, None, "transient",
            None, None, "transient",
            None, None, None,
            None, None, None,
        ]

    def test_pause_resume(self):
        injector = FaultInjector().add("page_read", "transient", every_nth=1)
        injector.pause()
        assert injector.decide("page_read") is None
        injector.resume()
        assert injector.decide("page_read") == "transient"

    def test_backoff_delays_grow(self):
        retry = BackoffPolicy(
            base_delay=0.001, multiplier=2.0, jitter=0.0, max_attempts=4
        )
        assert [retry.delay(n) for n in range(3)] == [0.001, 0.002, 0.004]
        assert retry.clock.now == pytest.approx(0.007)

    def test_default_retry_sleeps_on_the_injector_clock(self):
        injector = FaultInjector()
        assert injector.retry.max_attempts == 3
        assert injector.retry.clock is injector.clock
        injector.retry.delay(0)
        injector.retry.delay(1)
        assert injector.clock.now == pytest.approx(0.003)


class TestPageReadFaults:
    def test_transient_fault_is_retried_and_recovered(self):
        db = _small_db()
        expected = db.query("SELECT count(*) AS n FROM t")[0]["n"]
        injector = FaultInjector().add(
            "page_read", "transient", every_nth=1, limit=1
        )
        db.attach_fault_injector(injector)
        assert db.query("SELECT count(*) AS n FROM t")[0]["n"] == expected
        assert injector.injected == {("page_read", "transient"): 1}
        assert injector.clock.now > 0  # backoff on the virtual clock only

    def test_persistent_transient_fault_surfaces_typed(self):
        db = _small_db()
        db.attach_fault_injector(
            FaultInjector().add("page_read", "transient", every_nth=1)
        )
        with pytest.raises(TransientIOError):
            db.query("SELECT count(*) AS n FROM t")

    def test_torn_read_is_healed(self):
        db = _small_db()
        expected = sorted(
            tuple(r.values()) for r in db.query("SELECT k, v FROM t")
        )
        injector = FaultInjector().add(
            "page_read", "corrupt", every_nth=1, limit=1
        )
        db.attach_fault_injector(injector)
        actual = sorted(
            tuple(r.values()) for r in db.query("SELECT k, v FROM t")
        )
        assert actual == expected  # healed + retried, never silently wrong
        for page in db.database.table("t").pages.pages:
            page.verify()  # the heal restored the exact image

    def test_persistent_corruption_surfaces_typed(self):
        db = _small_db()
        db.attach_fault_injector(
            FaultInjector().add("page_read", "corrupt", every_nth=1)
        )
        with pytest.raises(PageCorruptionError):
            db.query("SELECT count(*) AS n FROM t")


class TestWriteFaultAtomicity:
    def _image(self, db, table_name):
        table = db.database.table(table_name)
        return [
            (
                page.page_id,
                tuple(page.slots),
                tuple(page.slot_sizes),
                page.used_bytes,
                page.checksum,
            )
            for page in table.pages.pages
        ]

    @pytest.mark.parametrize("dml", [
        "INSERT INTO t VALUES (9999, 1)",
        "DELETE FROM t WHERE k = 0",
        "UPDATE t SET v = 1 WHERE k = 1",
    ])
    def test_failed_write_leaves_heap_bit_identical(self, dml):
        db = _small_db()
        before = self._image(db, "t")
        rows_before = db.database.table("t").row_count
        db.attach_fault_injector(
            FaultInjector().add("page_write", "transient", every_nth=1)
        )
        with pytest.raises(TransientIOError):
            db.execute(dml)
        assert self._image(db, "t") == before
        assert db.database.table("t").row_count == rows_before


class TestIndexFaults:
    def _indexed_db(self) -> SoftDB:
        db = _small_db()
        db.execute("CREATE INDEX ix_k ON t (k)")
        db.runstats_all()
        return db

    def test_transient_probe_fault_recovers(self):
        db = self._indexed_db()
        sql = "SELECT v FROM t WHERE k <= 3"
        expected = sorted(r["v"] for r in db.query(sql))
        assert "IndexScan" in db.explain(sql)
        injector = FaultInjector().add(
            "index_probe", "transient", every_nth=1, limit=1
        )
        db.attach_fault_injector(injector)
        assert sorted(r["v"] for r in db.query(sql)) == expected
        assert not db.database.catalog.index("ix_k").quarantined

    def test_corruption_quarantines_then_rebuild_recovers(self):
        db = self._indexed_db()
        sql = "SELECT v FROM t WHERE k <= 3"
        expected = sorted(r["v"] for r in db.query(sql))
        db.attach_fault_injector(
            FaultInjector().add("index_probe", "corrupt", every_nth=1, limit=1)
        )
        with pytest.raises(IndexCorruptionError) as info:
            db.query(sql)
        assert info.value.index_name == "ix_k"
        index = db.database.catalog.index("ix_k")
        assert index.quarantined
        # While quarantined, planning degrades to a (correct) seq scan.
        assert "IndexScan" not in db.explain(sql)
        assert sorted(r["v"] for r in db.query(sql)) == expected
        # Recovery: rebuild from the heap; the index plans and probes again.
        db.rebuild_index("ix_k")
        assert not index.quarantined
        index.verify()
        assert "IndexScan" in db.explain(sql)
        assert sorted(r["v"] for r in db.query(sql)) == expected

    def test_quarantined_index_refuses_probes(self):
        db = self._indexed_db()
        index = db.database.catalog.index("ix_k")
        index.quarantined = True
        with pytest.raises(IndexCorruptionError):
            index.search((3,))


class TestChecksums:
    def test_incremental_page_checksum_tracks_mutations(self):
        db = _small_db()
        table = db.database.table("t")
        rid = table.insert((9999, 1))
        table.update(rid, (9999, 2))
        table.delete(rid)
        for page in table.pages.pages:
            assert page.compute_checksum() == page.checksum

    def test_incremental_index_checksum_tracks_mutations(self):
        db = _small_db()
        db.execute("CREATE INDEX ix_k ON t (k)")
        db.execute("INSERT INTO t VALUES (9999, 1)")
        db.execute("UPDATE t SET k = 8888 WHERE k = 9999")
        db.execute("DELETE FROM t WHERE k = 8888")
        index = db.database.catalog.index("ix_k")
        assert index.compute_checksum() == index.checksum
        index.verify()

"""Lock-contention regression tests for the shared singletons.

Sessions share one optimizer, one feedback store, and (optionally) one
plan cache across threads.  Before ISSUE 8 both PlanCache and
FeedbackStore were single-thread structures: a reader could observe a
plan mid-eviction, and two writers could lose feedback observations to
a racing ``setdefault``/``+= 1`` pair.  These tests hammer both from
many threads and check the invariants that only hold when the internal
locks work: counters add up exactly, state round-trips stay decodable,
and no operation raises.
"""

import random
import threading

from repro.api import SoftDB
from repro.feedback import FeedbackStore

THREADS = 8
ITERATIONS = 150


def _hammer(worker_fn, threads=THREADS):
    """Run ``worker_fn(worker_index)`` on N threads; re-raise the first
    exception any of them hit (a data race typically surfaces as
    KeyError/RuntimeError from a dict mutated mid-iteration)."""
    errors = []

    def run(index):
        try:
            worker_fn(index)
        except BaseException as error:  # noqa: BLE001 - diagnostics
            errors.append(error)

    pool = [
        threading.Thread(target=run, args=(i,), daemon=True)
        for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60)
        assert not thread.is_alive(), "worker thread hung"
    if errors:
        raise errors[0]


def test_feedback_store_concurrent_records_count_exactly():
    store = FeedbackStore()

    def worker(index):
        rng = random.Random(index)
        for n in range(ITERATIONS):
            table = f"t{rng.randrange(4)}"
            store.record_scan(table, f"sig{n % 7}", 10.0, 5.0 + index)
            store.record_join(
                f"j{n % 5}", 0.01, 0.02, tables=(table, "other")
            )
            store.record_base_rows(table, 100.0 + n)
            store.record_group(f"g{n % 3}", 8.0, 4.0)
            if n % 10 == 0:
                store.record_guard_trip("rows", tables=(table,))
            # Interleave readers: ranking walks every entry, so a racing
            # writer would blow up dict iteration without the lock.
            store.tables_with_qerror()
            store.worst_scans()
            store.worst_join_edges()
            store.snapshot()

    _hammer(worker)
    # Every record_* bumped ``observations`` exactly once under the
    # lock; lost updates would leave the count short.
    assert store.observations == THREADS * ITERATIONS * 4
    assert store.guard_trips == THREADS * (ITERATIONS // 10)


def test_feedback_store_state_roundtrip_under_writers():
    store = FeedbackStore()
    stop = threading.Event()

    def writer(index):
        n = 0
        while not stop.is_set():
            store.record_scan(f"t{index}", f"sig{n % 3}", 4.0, 2.0)
            n += 1

    pool = [
        threading.Thread(target=writer, args=(i,), daemon=True)
        for i in range(4)
    ]
    for thread in pool:
        thread.start()
    try:
        # state_dict must capture an internally-consistent snapshot even
        # while writers mutate the store; each one must load cleanly.
        for _ in range(50):
            state = store.state_dict()
            fresh = FeedbackStore()
            fresh.load_state(state)
            assert len(fresh) <= len(store)
    finally:
        stop.set()
        for thread in pool:
            thread.join(timeout=10)
            assert not thread.is_alive()


def test_plan_cache_concurrent_lookup_and_invalidation():
    db = SoftDB()
    for t in range(3):
        db.execute(f"CREATE TABLE pc{t} (id INT PRIMARY KEY, val INT)")
        db.execute(
            f"INSERT INTO pc{t} VALUES "
            + ", ".join(f"({k}, {k})" for k in range(1, 20))
        )
    cache = db.plan_cache
    queries = [
        f"SELECT val FROM pc{t} WHERE id > {lo}"
        for t in range(3)
        for lo in (2, 5, 9)
    ]
    calls = [0] * THREADS

    def worker(index):
        rng = random.Random(index * 31)
        for n in range(ITERATIONS):
            sql = rng.choice(queries)
            plan = cache.get_plan(sql)
            assert plan is not None
            calls[index] += 1
            if n % 20 == 5:
                # What DDL or RUNSTATS does to every cached plan.
                db.database.catalog.bump_epoch()
            if n % 35 == 7:
                cache.note_execution(plan, 1.0)

    _hammer(worker)
    # Each get_plan bumps exactly one of hits/misses under the lock.
    assert cache.hits + cache.misses == sum(calls)
    # The cache still serves coherent plans after the storm.
    for sql in queries:
        assert db.execute(sql) is not None
    db.close()


def test_a_miss_plans_outside_the_cache_lock():
    """One session's miss must not hold up another's lookup."""
    db = SoftDB()
    db.execute("CREATE TABLE c0 (id INT PRIMARY KEY, val INT)")
    db.execute("INSERT INTO c0 VALUES (1, 1), (2, 2), (3, 3)")
    cache = db.plan_cache
    cache.get_plan("SELECT val FROM c0 WHERE id > 1")
    planning, release = threading.Event(), threading.Event()
    optimize = db.optimizer.optimize

    def slow_optimize(statement):
        planning.set()
        release.wait(10)
        return optimize(statement)

    db.optimizer.optimize = slow_optimize
    miss = threading.Thread(
        target=cache.get_plan, args=("SELECT id FROM c0 WHERE val = 3",)
    )
    hit = threading.Thread(
        target=cache.get_plan, args=("SELECT val FROM c0 WHERE id > 2",)
    )
    miss.start()
    try:
        assert planning.wait(10)
        hit.start()
        hit.join(timeout=10)
        assert not hit.is_alive(), "a hit waited for another thread's miss"
    finally:
        release.set()
        miss.join(timeout=10)
    assert (cache.hits, cache.misses) == (1, 2)


def test_plan_cache_clear_races_with_get_plan():
    db = SoftDB()
    db.execute("CREATE TABLE c0 (id INT PRIMARY KEY, val INT)")
    db.execute("INSERT INTO c0 VALUES (1, 1), (2, 2), (3, 3)")
    cache = db.plan_cache
    sql = "SELECT val FROM c0 WHERE id > 1"

    def worker(index):
        for n in range(ITERATIONS):
            if index == 0 and n % 3 == 0:
                cache.clear()
            else:
                cache.get_plan(sql)

    _hammer(worker, threads=4)
    rows = db.execute(sql).rows
    assert [r["val"] for r in rows] == [2, 3]
    db.close()

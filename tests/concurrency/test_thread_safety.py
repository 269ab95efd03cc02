"""Lock-contention regression tests for the shared singletons.

Sessions share one optimizer and (optionally) one plan cache across
threads.  A plan cache without its lock lets a reader observe a plan
mid-eviction.  These tests hammer it from many threads and check the
invariants that only hold when the internal lock works: counters add
up exactly and no operation raises.
"""

import random
import threading

from repro.api import SoftDB

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
    breaches = [0] * THREADS

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
                # What a guard trip does to the plan it ran.
                cache.note_guard_breach(plan)
                breaches[index] += 1

    _hammer(worker)
    # Each get_plan bumps exactly one of hits/misses under the lock.
    assert cache.hits + cache.misses == sum(calls)
    # A breach evicts at most once (a racing epoch bump or breach may
    # have dropped the plan first), and every eviction is counted.
    assert 0 < cache.guard_invalidations <= sum(breaches)
    assert cache.invalidations >= cache.guard_invalidations
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

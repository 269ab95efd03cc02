"""Plan resilience: how cached plans survive a changing database.

Three mechanisms from the paper's Sections 3.2 / 4.1 / 4.2, demonstrated
on one workload:

1. **Runtime parameters** (§4.2): a min/max soft constraint is read at
   execution time — widening repairs never invalidate the plan.
2. **Backup plans** (§4.1): a plan that *does* rely on an ASC keeps an
   ASC-free alternative; when the ASC is overturned, the package reverts
   instead of recompiling.
3. **Probation** (§3.2): a freshly-discovered constraint is assessed in
   shadow mode before being trusted.

Run:  python examples/resilient_plans.py
"""

from repro import SoftDB
from repro.discovery import mine_linear_correlations
from repro.optimizer.planner import PlanCache
from repro.softcon import MinMaxSC
from repro.softcon.maintenance import DropPolicy, RepairPolicy
from repro.workload.datagen import DataGenerator


def build_db() -> SoftDB:
    db = SoftDB()
    db.execute(
        "CREATE TABLE metrics (id INT PRIMARY KEY, load DOUBLE, "
        "latency DOUBLE)"
    )
    generator = DataGenerator(2718)
    batch = []
    for n in range(8000):
        load = generator.uniform(0.0, 100.0)
        batch.append((n, load, 5.0 * load + 20.0 + generator.uniform(-2, 2)))
    db.database.insert_many("metrics", batch)
    db.execute("CREATE INDEX idx_latency ON metrics (latency)")
    db.runstats_all()
    return db


def main() -> None:
    db = build_db()

    # -- 1. runtime parameters -----------------------------------------------
    print("=== runtime parameters (Section 4.2) ===")
    db.add_soft_constraint(
        MinMaxSC("load_range", "metrics", "load", 0.0, 100.0),
        policy=RepairPolicy(),
    )
    cache = PlanCache(db.optimizer, backup_plans=True)
    sql = "SELECT id FROM metrics WHERE load >= 95.0"
    plan = cache.get_plan(sql)
    print(db.explain(sql))
    print(f"rows: {db.executor.execute(plan).row_count}")
    print("inserting load=250 (widens the min/max SC via repair)...")
    db.execute("INSERT INTO metrics VALUES (99999, 250.0, 1270.0)")
    same = cache.get_plan(sql)
    print(
        f"plan reused: {same is plan}; invalidations: {cache.invalidations}; "
        f"rows now: {db.executor.execute(same).row_count} "
        "(the new row is found — PARAM reads the current bound)\n"
    )

    # -- 2. probation, then backup plans -----------------------------------------
    print("=== probation (Section 3.2) ===")
    (asc,) = mine_linear_correlations(
        db.database, "metrics", [("latency", "load")], confidence_levels=(1.0,)
    )
    db.registry.register(asc, policy=DropPolicy())
    db.registry.hold_in_probation(asc.name)
    hot = "SELECT id, latency FROM metrics WHERE load = 42.0"
    for _ in range(5):
        db.plan(hot)  # the shadow pass counts would-have-helped queries
    print(f"probation report: {db.registry.probation_report()}")
    promoted = db.registry.promote_ready(min_uses=3)
    print(f"promoted after assessment: {promoted}\n")

    print("=== backup plans (Section 4.1) ===")
    plan = cache.get_plan(hot)
    print(
        f"plan depends on: {sorted(plan.sc_dependencies)} "
        f"(backup compiled: {cache.backups} entries)"
    )
    print("inserting an outlier that overturns the correlation...")
    db.execute("INSERT INTO metrics VALUES (100000, 42.0, 99999.0)")
    fallback = cache.get_plan(hot)
    rows = db.executor.execute(fallback).rows
    print(
        f"reverted to backup (fallbacks={cache.fallbacks}, "
        f"recompiles avoided); outlier visible: "
        f"{any(r['id'] == 100000 for r in rows)}"
    )


if __name__ == "__main__":
    main()

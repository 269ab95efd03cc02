"""E4 — Join holes: range trimming and discovery-cost linearity.

Paper source: Section 2 ([8]): discover all maximal empty 2-D ranges
("holes") over a join path; trim query ranges against them to reduce the
pages scanned.  "The discovery algorithm is quite efficient and is linear
in the size of the resulting join table."

Shape to reproduce: (a) trimmed queries scan fewer pages with identical
answers; (b) discovery runtime grows ~linearly with the join-result size.
"""

import time

import pytest

from repro.discovery.hole_miner import HoleMiner, mine_join_holes
from repro.harness.runner import compare_optimizers
from repro.workload.schemas import build_join_hole_scenario

# A query box that *partially* overlaps the planted hole: the lead_time
# range [10, 45] is trimmed down to [10, ~25) because the hole covers the
# query's full distance range.  (The query's high edge, 45, sits inside
# the mined hole; the data's own extremes do not, since grid mining
# shrinks hole edges by a sliver.)
QUERY = (
    "SELECT o.id FROM orders o, deliveries d "
    "WHERE o.region_id = d.region_id "
    "AND o.lead_time BETWEEN 10.0 AND 45.0 "
    "AND d.distance BETWEEN 28.0 AND 48.0"
)
# A query box entirely inside the hole: provably empty, no I/O at all.
EMPTY_QUERY = (
    "SELECT o.id FROM orders o, deliveries d "
    "WHERE o.region_id = d.region_id "
    "AND o.lead_time >= 28.0 AND d.distance BETWEEN 28.0 AND 48.0"
)


@pytest.fixture(scope="module")
def scenario():
    db = build_join_hole_scenario(rows_per_table=4000, regions=50, seed=71)
    constraint = mine_join_holes(
        db.database,
        "orders", "lead_time",
        "deliveries", "distance",
        "region_id", "region_id",
        grid_size=24,
    )
    db.add_soft_constraint(constraint, verify_first=True)
    return db


def test_e04_benchmark_trimmed_query(benchmark, scenario):
    plan = scenario.plan(QUERY)
    benchmark(lambda: scenario.executor.execute(plan))


def test_e04_benchmark_discovery(benchmark):
    db = build_join_hole_scenario(rows_per_table=2000, seed=72)
    benchmark(
        lambda: mine_join_holes(
            db.database,
            "orders", "lead_time",
            "deliveries", "distance",
            "region_id", "region_id",
            grid_size=24,
        )
    )


def test_e04_report_trimming_benefit(report, scenario, benchmark):
    enabled, disabled = compare_optimizers(scenario, QUERY)
    trims = [r for r in enabled.plan.rewrites_applied if "trimmed" in r]
    empty_on, empty_off = compare_optimizers(scenario, EMPTY_QUERY)
    benchmark(lambda: scenario.plan(QUERY))
    report(
        "E4a: join-hole range trimming (4k x 4k rows, planted hole; "
        "orders clustered+indexed on lead_time)",
        ["query / metric", "with holes", "without"],
        [
            ["partial overlap: rewrites fired", len(trims), 0],
            ["partial overlap: rows returned", enabled.row_count,
             disabled.row_count],
            ["partial overlap: pages read", enabled.page_reads,
             disabled.page_reads],
            ["inside hole: rows returned", empty_on.row_count,
             empty_off.row_count],
            ["inside hole: pages read", empty_on.page_reads,
             empty_off.page_reads],
        ],
    )
    assert trims
    assert enabled.row_count == disabled.row_count > 0
    # The paper's claim: trimming "can reduce the number of pages that
    # need to be scanned for the join".
    assert enabled.page_reads < disabled.page_reads
    # A query box inside the mined hole trims one side to the sliver the
    # grid could not certify empty — a handful of index pages instead of a
    # table scan.  (The remaining I/O is the other table's hash build.)
    assert empty_on.row_count == empty_off.row_count == 0
    assert empty_on.page_reads < empty_off.page_reads * 0.75


def test_e04_report_discovery_linearity(report, benchmark):
    """Mining time vs join size: ratios should track the size ratios."""
    rows = []
    timings = []
    for scale in (1000, 2000, 4000, 8000):
        db = build_join_hole_scenario(rows_per_table=scale, seed=73)
        constraint_template = mine_join_holes  # noqa: F841 - clarity
        started = time.perf_counter()
        constraint = mine_join_holes(
            db.database,
            "orders", "lead_time",
            "deliveries", "distance",
            "region_id", "region_id",
            grid_size=24,
        )
        elapsed = time.perf_counter() - started
        join_size = sum(1 for _ in constraint.path.join_pairs(db.database))
        timings.append((join_size, elapsed))
        rows.append([scale, join_size, round(elapsed * 1000, 1),
                     round(elapsed / join_size * 1e6, 2)])
    benchmark(lambda: None)  # the sweep above is the measurement
    report(
        "E4b: hole-discovery runtime vs join-result size (linearity)",
        ["rows/table", "join pairs", "mining ms", "us per pair"],
        rows,
    )
    # Shape: runtime grows ~linearly — clearly sub-quadratically — in the
    # join size.  Compare the largest and smallest scale with a generous
    # exponent bound to absorb wall-clock noise.
    small_size, small_time = timings[0]
    big_size, big_time = timings[-1]
    size_ratio = big_size / small_size
    time_ratio = big_time / small_time
    assert time_ratio < size_ratio ** 1.5

"""E2 — Join elimination over (informational) referential integrity.

Paper source: Section 2 ([6]): join elimination of joins over foreign keys,
shown on TPC-D-style workloads; Section 1's informational constraints make
it available in data warehouses where RI is loader-maintained.

Shape to reproduce: queries touching only fact columns drop the dimension
joins, costing roughly the fact-scan alone; queries actually using
dimension columns are untouched; answers always identical.
"""

import pytest

from repro.harness.runner import compare_optimizers, measure_query
from repro.workload.schemas import build_star_schema

QUERIES = {
    "fact-only filter": (
        "SELECT s.id, s.amount FROM sales s, customer c "
        "WHERE s.customer_id = c.id AND s.amount > 400.0"
    ),
    "fact-only aggregate": (
        "SELECT s.customer_id, sum(s.amount) AS total FROM sales s, "
        "product p WHERE s.product_id = p.id GROUP BY s.customer_id"
    ),
    "two dims, fact-only": (
        "SELECT s.id FROM sales s, customer c, product p "
        "WHERE s.customer_id = c.id AND s.product_id = p.id "
        "AND s.quantity > 8"
    ),
    "dim column used (control)": (
        "SELECT c.segment, sum(s.amount) AS total FROM sales s, customer c "
        "WHERE s.customer_id = c.id GROUP BY c.segment"
    ),
}


@pytest.fixture(scope="module")
def scenario():
    return build_star_schema(
        facts=20000, customers=500, products=200, seed=51
    )


def test_e02_benchmark_eliminated(benchmark, scenario):
    plan = scenario.plan(QUERIES["fact-only filter"])
    benchmark(lambda: scenario.executor.execute(plan))


def test_e02_benchmark_baseline(benchmark, scenario):
    from repro.harness.runner import all_off
    from repro.optimizer.planner import Optimizer

    plan = Optimizer(scenario.database, None, all_off()).optimize(
        QUERIES["fact-only filter"]
    )
    benchmark(lambda: scenario.executor.execute(plan))


def test_e02_report(report, benchmark):
    # Larger dimensions than the timing fixture, so the eliminated join's
    # I/O share is visible in the page counts.
    scenario = build_star_schema(
        facts=20000, customers=5000, products=2000, seed=52
    )
    rows = []
    for label, sql in QUERIES.items():
        enabled, disabled = compare_optimizers(scenario, sql)
        eliminated = sum(
            1 for r in enabled.plan.rewrites_applied if "join_elimination" in r
        )
        rows.append(
            [
                label,
                eliminated,
                enabled.page_reads,
                disabled.page_reads,
                round(disabled.page_reads / max(1, enabled.page_reads), 2),
            ]
        )
    benchmark(lambda: scenario.plan(QUERIES["fact-only filter"]))
    report(
        "E2: join elimination via informational FKs (20k-row fact table)",
        ["query", "joins removed", "pages w/", "pages w/o", "speedup x"],
        rows,
    )
    # Shape: fact-only queries improve; the control query is unchanged.
    assert rows[0][1] >= 1 and rows[0][4] > 1.0
    assert rows[2][1] == 2
    assert rows[3][1] == 0 and rows[3][4] == pytest.approx(1.0, abs=0.05)

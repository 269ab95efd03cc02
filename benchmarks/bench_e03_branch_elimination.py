"""E3 — UNION ALL branch knockout via range constraints.

Paper source: Section 5's worked example — a 12-month union-all view; "a
query with a predicate asking for data from January to March ... requires
us to only look at the first three branches".

Shape to reproduce: pages scanned grow with the number of *overlapping*
branches, not with the total number of branches; knockout works equally
from declared CHECK constraints and from mined range soft constraints.
"""

import pytest

from repro.discovery.range_miner import mine_range_checks
from repro.harness.runner import compare_optimizers
from repro.workload.queries import monthly_union_sql
from repro.workload.schemas import YEAR_START, build_monthly_union_scenario

MONTHS = 12
ROWS_PER_MONTH = 2000


@pytest.fixture(scope="module")
def scenario():
    return build_monthly_union_scenario(
        months=MONTHS, rows_per_month=ROWS_PER_MONTH, seed=61,
        declare_checks=True,
    )


def test_e03_benchmark_knockout(benchmark, scenario):
    db, tables = scenario
    sql = monthly_union_sql(tables, YEAR_START, YEAR_START + 89)
    plan = db.plan(sql)
    benchmark(lambda: db.executor.execute(plan))


def test_e03_benchmark_baseline(benchmark, scenario):
    from repro.harness.runner import all_off
    from repro.optimizer.planner import Optimizer

    db, tables = scenario
    sql = monthly_union_sql(tables, YEAR_START, YEAR_START + 89)
    plan = Optimizer(db.database, db.registry, all_off()).optimize(sql)
    benchmark(lambda: db.executor.execute(plan))


def test_e03_report_pages_vs_months_matched(report, scenario, benchmark):
    db, tables = scenario
    rows = []
    for months_matched in (1, 3, 6, 9, 12):
        sql = monthly_union_sql(
            tables, YEAR_START, YEAR_START + months_matched * 30 - 1
        )
        enabled, disabled = compare_optimizers(db, sql)
        rows.append(
            [
                months_matched,
                MONTHS - months_matched,
                enabled.page_reads,
                disabled.page_reads,
                round(enabled.page_reads / disabled.page_reads, 3),
            ]
        )
    benchmark(
        lambda: db.plan(monthly_union_sql(tables, YEAR_START, YEAR_START + 89))
    )
    report(
        f"E3: union-all branch knockout ({MONTHS} monthly branches x "
        f"{ROWS_PER_MONTH} rows)",
        ["months matched", "branches knocked out", "pages w/", "pages w/o", "ratio"],
        rows,
    )
    # Shape: pages ratio tracks months_matched / 12.
    for row in rows:
        assert row[4] == pytest.approx(row[0] / MONTHS, abs=0.08)


def test_e03_report_mined_constraints(report, benchmark):
    """Ablation: same knockout from *mined* range SCs (nothing declared)."""
    db, tables = build_monthly_union_scenario(
        months=6, rows_per_month=1000, seed=62, declare_checks=False
    )
    before = db.plan(monthly_union_sql(tables, YEAR_START, YEAR_START + 29))
    for constraint in mine_range_checks(db.database, tables, "day"):
        db.add_soft_constraint(constraint)
    after = db.plan(monthly_union_sql(tables, YEAR_START, YEAR_START + 29))
    benchmark(
        lambda: db.plan(monthly_union_sql(tables, YEAR_START, YEAR_START + 29))
    )
    knocked_before = sum("knocked" in r for r in before.rewrites_applied)
    knocked_after = sum("knocked" in r for r in after.rewrites_applied)
    report(
        "E3 ablation: knockout source (6 branches, 1-month query)",
        ["constraint source", "branches knocked out"],
        [["none declared, none mined", knocked_before],
         ["mined range SCs", knocked_after]],
    )
    assert knocked_before == 0 and knocked_after == 5

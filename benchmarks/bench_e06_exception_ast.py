"""E6 — ASCs as ASTs: the late_shipments exception-table plan.

Paper source: Section 4.4's worked example: the business rule "products
ship within three weeks" held as an SC with its violations materialized in
the ``late_shipments`` AST; queries on ``ship_date`` run as

    (purchase WHERE pred AND introduced-order_date-range)
    UNION ALL (late_shipments WHERE pred)

"In cases that the ASC's AST is empty, the exception addendum to the
query plan should be of trivial cost."

Shape to reproduce: while exceptions are rare the union plan costs about
as much as the pure index plan; as the exception rate grows the addendum
grows and the advantage over a full scan erodes (crossover); answers are
always exact.
"""

import pytest

from repro.harness.runner import compare_optimizers
from repro.workload.schemas import YEAR_START, build_purchase_scenario

ROWS = 20000
RULE_SQL = (
    "CREATE SUMMARY TABLE late_shipments AS (SELECT * FROM purchase "
    "WHERE ship_date > order_date + 21 OR ship_date < order_date)"
)
QUERY = f"SELECT id, amount FROM purchase WHERE ship_date = {YEAR_START + 400}"


def build(exception_rate, seed=91):
    db = build_purchase_scenario(
        rows=ROWS, exception_rate=exception_rate, seed=seed
    )
    db.execute(RULE_SQL)
    return db


@pytest.fixture(scope="module")
def scenario():
    return build(0.01)


def test_e06_benchmark_routed_plan(benchmark, scenario):
    plan = scenario.plan(QUERY)
    benchmark(lambda: scenario.executor.execute(plan))


def test_e06_benchmark_full_scan_baseline(benchmark, scenario):
    from repro.harness.runner import all_off
    from repro.optimizer.planner import Optimizer

    plan = Optimizer(scenario.database, None, all_off()).optimize(QUERY)
    benchmark(lambda: scenario.executor.execute(plan))


def test_e06_report_exception_rate_sweep(report, benchmark):
    rows = []
    ratios = []
    for rate in (0.0, 0.01, 0.05, 0.1, 0.2):
        db = build(rate)
        exceptions = db.database.table("late_shipments").row_count
        enabled, disabled = compare_optimizers(db, QUERY)
        routed = any("ast_routing" in r for r in enabled.plan.rewrites_applied)
        ratio = enabled.page_reads / disabled.page_reads
        ratios.append(ratio)
        rows.append(
            [
                f"{rate * 100:.0f}%",
                exceptions,
                "yes" if routed else "no",
                enabled.page_reads,
                disabled.page_reads,
                round(ratio, 3),
            ]
        )
    benchmark(lambda: db.plan(QUERY))
    report(
        f"E6: exception-AST union plan vs full scan ({ROWS}-row purchase "
        "table; probe on unindexed ship_date)",
        ["exception rate", "AST rows", "routed", "pages routed",
         "pages scan", "ratio"],
        rows,
    )
    # Shape: near-empty AST => the routed plan is far cheaper than the
    # scan; the advantage decays monotonically-ish as exceptions grow.
    assert ratios[0] < 0.35
    assert ratios[0] < ratios[-1]


def test_e06_report_information_ast_ablation(report, benchmark):
    """Ablation: routing off — the AST still helps *estimation* only.

    This is the paper's "information AST": not routable, but its existence
    (via the SSC's confidence) still feeds filter-factor estimation
    through twinning.
    """
    from repro.optimizer.planner import Optimizer, OptimizerConfig
    from repro.stats.errors import q_error

    db = build(0.05, seed=92)
    day = YEAR_START + 400
    # ship_date tightly windowed; order_date loosely bounded by the query.
    # The SC's difference bound tightens the order_date range for
    # estimation (the loose [day-60, ...] becomes [day-21, day+10]).
    predicate = (
        f"ship_date BETWEEN {day} AND {day + 10} "
        f"AND order_date >= {day - 60}"
    )
    sql = f"SELECT id FROM purchase WHERE {predicate}"
    actual = db.query(
        f"SELECT count(*) AS n FROM purchase WHERE {predicate}"
    )[0]["n"]
    routable = db.plan(sql)
    info_only = Optimizer(
        db.database,
        db.registry,
        OptimizerConfig(disabled_rules={"ast_routing"}),
    ).optimize(sql)
    neither = Optimizer(
        db.database,
        db.registry,
        OptimizerConfig(disabled_rules={"ast_routing", "twinning"}),
    ).optimize(sql)
    benchmark(lambda: db.plan(sql))
    report(
        "E6 ablation: routable AST vs information-only AST vs none "
        "(cardinality of a correlated two-column range)",
        ["configuration", "estimated rows", "q-error"],
        [
            ["routable AST (full)", round(routable.estimated_rows),
             round(q_error(routable.estimated_rows, actual), 2)],
            ["information AST (twinning only)", round(info_only.estimated_rows),
             round(q_error(info_only.estimated_rows, actual), 2)],
            ["no AST information", round(neither.estimated_rows),
             round(q_error(neither.estimated_rows, actual), 2)],
        ],
    )
    assert q_error(info_only.estimated_rows, actual) <= q_error(
        neither.estimated_rows, actual
    )

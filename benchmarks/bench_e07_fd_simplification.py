"""E7 — FD-based GROUP BY / ORDER BY simplification.

Paper source: Section 2 ([29]): explicitly-represented functional
dependencies let the optimizer infer that some GROUP BY / ORDER BY
attributes are superfluous, saving sort cost — and denormalized tables
(where such FDs abound, undeclared) are exactly where discovery shines.

Shape to reproduce: the simplified plan hashes/sorts on fewer keys (lower
estimated and wall-clock cost) and produces identical groups/order.
"""

import pytest

from repro.discovery.fd_miner import mine_functional_dependencies
from repro.harness.runner import all_off, compare_optimizers
from repro.optimizer.planner import Optimizer, OptimizerConfig
from repro.workload.schemas import build_denormalized_orders

ROWS = 20000

GROUP_SQL = (
    "SELECT city_id, state_id, sum(amount) AS total, count(*) AS n "
    "FROM orders GROUP BY city_id, state_id"
)
ORDER_SQL = (
    "SELECT id, city_id, state_id FROM orders "
    "ORDER BY city_id, state_id, id"
)


@pytest.fixture(scope="module")
def scenario():
    db = build_denormalized_orders(rows=ROWS, cities=200, states=10, seed=101)
    for constraint in mine_functional_dependencies(
        db.database, "orders", columns=["city_id", "state_id"],
        max_g3_error=0.0,
    ):
        db.add_soft_constraint(constraint, verify_first=True)
    return db


def test_e07_benchmark_simplified_group(benchmark, scenario):
    plan = scenario.plan(GROUP_SQL)
    benchmark(lambda: scenario.executor.execute(plan))


def test_e07_benchmark_baseline_group(benchmark, scenario):
    plan = Optimizer(scenario.database, None, all_off()).optimize(GROUP_SQL)
    benchmark(lambda: scenario.executor.execute(plan))


def test_e07_report(report, scenario, benchmark):
    rows = []
    for label, sql in (("GROUP BY", GROUP_SQL), ("ORDER BY", ORDER_SQL)):
        enabled, disabled = compare_optimizers(
            scenario, sql, check_same_answers=(label == "GROUP BY")
        )
        fired = sum(
            1
            for r in enabled.plan.rewrites_applied
            if "groupby_simplification" in r
        )
        rows.append(
            [
                label,
                fired,
                round(enabled.plan.estimated_cost, 1),
                round(disabled.plan.estimated_cost, 1),
                enabled.row_count,
                disabled.row_count,
            ]
        )
    benchmark(lambda: scenario.plan(GROUP_SQL))
    report(
        f"E7: FD simplification on a denormalized {ROWS}-row order table "
        "(mined FD: city_id -> state_id)",
        ["clause", "keys dropped", "est cost w/", "est cost w/o",
         "rows w/", "rows w/o"],
        rows,
    )
    # Shape: the rewrite fires, answers agree, cost never increases.
    for row in rows:
        assert row[1] >= 1
        assert row[2] <= row[3]
        assert row[4] == row[5]


def test_e07_report_sorted_order_identical(report, scenario, benchmark):
    enabled, disabled = compare_optimizers(
        scenario, ORDER_SQL, check_same_answers=False
    )
    identical = enabled.result.tuples() == disabled.result.tuples()
    sort_keys_with = _sort_key_count(enabled.plan.root)
    sort_keys_without = _sort_key_count(disabled.plan.root)
    benchmark(lambda: scenario.executor.execute(scenario.plan(ORDER_SQL)))
    report(
        "E7 detail: ORDER BY key narrowing",
        ["metric", "with FD", "without"],
        [
            ["sort keys", sort_keys_with, sort_keys_without],
            ["output order identical", identical, True],
        ],
    )
    assert identical
    assert sort_keys_with < sort_keys_without


def _sort_key_count(root):
    from repro.optimizer.physical import Sort

    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Sort):
            return len(node.order)
        stack.extend(node.children())
    return 0

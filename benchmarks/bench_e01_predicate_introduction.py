"""E1 — Predicate introduction from linear-correlation ASCs.

Paper source: Section 2 ([10]) and Section 3.3: a discovered linear
correlation ``a = k*b + c ± eps`` with an index on ``a`` lets the rewriter
introduce ``a BETWEEN ...`` for queries that only constrain ``b``.

Shape to reproduce: the rewritten plan reads far fewer pages than the full
scan; the benefit shrinks as the band (eps) grows; answers are identical.
Ablation: the miner's band-selectivity threshold is what separates usable
correlations from useless ones.
"""

import pytest

from repro.discovery.linear_miner import LinearMiner, mine_linear_correlations
from repro.harness.runner import compare_optimizers, measure_query
from repro.workload.schemas import build_correlated_table

ROWS = 20000
QUERY = "SELECT id, a FROM meas WHERE b = 500.0"


@pytest.fixture(scope="module")
def scenario():
    db = build_correlated_table(rows=ROWS, slope=3.0, intercept=10.0, noise=5.0, seed=41)
    (asc,) = mine_linear_correlations(
        db.database, "meas", [("a", "b")], confidence_levels=(1.0,)
    )
    db.add_soft_constraint(asc, verify_first=True)
    return db


def test_e01_benchmark_rewritten_query(benchmark, scenario):
    plan = scenario.plan(QUERY)
    result = benchmark(lambda: scenario.executor.execute(plan))
    assert result.row_count >= 0


def test_e01_benchmark_baseline_query(benchmark, scenario):
    from repro.harness.runner import all_off
    from repro.optimizer.planner import Optimizer

    plan = Optimizer(scenario.database, None, all_off()).optimize(QUERY)
    benchmark(lambda: scenario.executor.execute(plan))


def test_e01_report_speedup_vs_band_width(report, benchmark):
    """Sweep the correlation tightness (eps): benefit shrinks as eps grows."""
    rows = []
    for noise in (1.0, 5.0, 20.0, 80.0, 200.0):
        db = build_correlated_table(
            rows=8000, slope=3.0, intercept=10.0, noise=noise, seed=42
        )
        candidates = mine_linear_correlations(
            db.database, "meas", [("a", "b")],
            confidence_levels=(1.0,), max_band_selectivity=1.0,
        )
        db.add_soft_constraint(candidates[0], verify_first=True)
        enabled, disabled = compare_optimizers(db, QUERY)
        fired = any(
            "predicate_introduction" in r for r in enabled.plan.rewrites_applied
        )
        rows.append(
            [
                noise,
                "yes" if fired else "no",
                enabled.page_reads,
                disabled.page_reads,
                round(disabled.page_reads / max(1, enabled.page_reads), 2),
            ]
        )
    benchmark(lambda: db.plan(QUERY))  # representative optimize() timing
    report(
        "E1: predicate introduction — pages read vs correlation tightness "
        f"(table={ROWS} rows; query: {QUERY})",
        ["eps (noise)", "rewrite fired", "pages w/ ASC", "pages baseline", "speedup x"],
        rows,
    )
    # Shape: tight correlations win big; the win monotonically shrinks.
    speedups = [row[4] for row in rows]
    assert speedups[0] > 3.0
    assert speedups[0] >= speedups[-1]


def test_e01_report_miner_threshold_ablation(report, benchmark):
    """The paper's eps threshold: without it, useless SCs get mined."""
    db = build_correlated_table(rows=6000, noise=5.0, seed=43)
    rows = []
    for threshold in (0.02, 0.1, 0.25, 1.0):
        miner = LinearMiner(
            confidence_levels=(1.0,), max_band_selectivity=threshold
        )
        found = miner.mine_table(db.database, "meas", [("a", "b")])
        rows.append([threshold, len(found)])
    benchmark(
        lambda: LinearMiner(confidence_levels=(1.0,)).mine_table(
            db.database, "meas", [("a", "b")]
        )
    )
    report(
        "E1 ablation: miner band-selectivity threshold vs candidates kept",
        ["max band selectivity", "ASC candidates"],
        rows,
    )


def test_e01_report_join_path_correlation(report, benchmark):
    """Extension (paper §2): the same mechanism across a join path.

    "It would be possible in principle to mine for these linear
    correlations between attributes across common join paths...  But we
    would need a way to represent the correlation information and to make
    it available to the optimizer."  JoinLinearSC is that representation.
    """
    from repro.discovery.linear_miner import mine_join_linear_correlation
    from repro.workload.schemas import build_join_linear_scenario

    db = build_join_linear_scenario(rows_per_table=6000, seed=44)
    candidates = mine_join_linear_correlation(
        db.database,
        "freight", "cost", "shipments", "weight",
        "region_id", "region_id",
        confidence_levels=(1.0,),
    )
    db.add_soft_constraint(candidates[0], verify_first=True)
    sql = (
        "SELECT s.id FROM shipments s, freight f "
        "WHERE s.region_id = f.region_id "
        "AND s.weight BETWEEN 100.0 AND 110.0"
    )
    enabled, disabled = compare_optimizers(db, sql)
    benchmark(lambda: db.plan(sql))
    fired = any("join-path band" in r for r in enabled.plan.rewrites_applied)
    report(
        "E1 extension: inter-table correlation over shipments ⋈ freight "
        "(band on freight.cost introduced from shipments.weight)",
        ["metric", "with join-linear ASC", "without"],
        [
            ["rewrite fired", "yes" if fired else "no", "no"],
            ["rows returned", enabled.row_count, disabled.row_count],
            ["pages read", enabled.page_reads, disabled.page_reads],
        ],
    )
    assert fired
    assert enabled.row_count == disabled.row_count
    assert enabled.page_reads < disabled.page_reads

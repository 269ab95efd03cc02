"""E5 — SSC twinned predicates for cardinality estimation.

Paper source: Section 5.1's project-table example: ``start_date <= d AND
end_date >= d`` is badly estimated under the independence assumption; the
SSC "90% of projects last no longer than 30 days" twins the ``end_date``
predicate into an estimation-only predicate on ``start_date``, collapsing
the two ranges into one BETWEEN.

Shape to reproduce: q-error with the SSC well below the independence
q-error across probe dates; the estimate degrades gracefully as the SSC's
confidence drops; twinned predicates never change answers.
"""

import pytest

from repro.optimizer.planner import Optimizer, OptimizerConfig
from repro.softcon.checksc import CheckSoftConstraint
from repro.stats.errors import q_error
from repro.workload.schemas import YEAR_START, build_project_table

ROWS = 20000


@pytest.fixture(scope="module")
def scenario():
    db = build_project_table(rows=ROWS, long_fraction=0.1, seed=81)
    ssc = CheckSoftConstraint(
        "short_projects", "project", "end_date <= start_date + 30",
        confidence=0.9,
    )
    db.add_soft_constraint(ssc, verify_first=True)
    return db


def probe_sql(day):
    return (
        f"SELECT id FROM project WHERE start_date <= {day} "
        f"AND end_date >= {day}"
    )


def count_sql(day):
    return (
        f"SELECT count(*) AS n FROM project WHERE start_date <= {day} "
        f"AND end_date >= {day}"
    )


def test_e05_benchmark_optimize_with_twinning(benchmark, scenario):
    benchmark(lambda: scenario.plan(probe_sql(YEAR_START + 500)))


def test_e05_report_qerror_across_dates(report, scenario, benchmark):
    no_twin = Optimizer(
        scenario.database, scenario.registry,
        OptimizerConfig(disabled_rules={"twinning"}),
    )
    rows = []
    twin_errors = []
    plain_errors = []
    for offset in (100, 300, 500, 700, 900):
        day = YEAR_START + offset
        actual = scenario.query(count_sql(day))[0]["n"]
        with_ssc = scenario.plan(probe_sql(day)).estimated_rows
        plain = no_twin.optimize(probe_sql(day)).estimated_rows
        twin_errors.append(q_error(with_ssc, actual))
        plain_errors.append(q_error(plain, actual))
        rows.append(
            [
                f"+{offset}d",
                actual,
                round(with_ssc),
                round(twin_errors[-1], 2),
                round(plain),
                round(plain_errors[-1], 2),
            ]
        )
    benchmark(lambda: scenario.plan(probe_sql(YEAR_START + 500)).estimated_rows)
    report(
        f"E5: cardinality q-error, active-projects query ({ROWS} rows, "
        "SSC: 90% of projects last <= 30 days)",
        ["probe date", "actual", "est w/ SSC", "q-err SSC",
         "est indep.", "q-err indep."],
        rows,
    )
    # Shape: the SSC estimate dominates independence on (geometric) average.
    twin_mean = _geometric_mean(twin_errors)
    plain_mean = _geometric_mean(plain_errors)
    assert twin_mean < plain_mean / 2
    assert twin_mean < 2.0


def test_e05_report_confidence_sweep(report, benchmark):
    """How good must the SSC be?  Sweep the planted long-tail fraction."""
    rows = []
    day = YEAR_START + 500
    for long_fraction in (0.01, 0.1, 0.3, 0.5):
        db = build_project_table(
            rows=8000, long_fraction=long_fraction, seed=82
        )
        ssc = CheckSoftConstraint(
            "short_projects", "project", "end_date <= start_date + 30",
            confidence=0.9,
        )
        db.add_soft_constraint(ssc, verify_first=True)
        actual = db.query(count_sql(day))[0]["n"]
        with_ssc = db.plan(probe_sql(day)).estimated_rows
        plain = Optimizer(
            db.database,
            db.registry,
            OptimizerConfig(disabled_rules={"twinning"}),
        ).optimize(probe_sql(day)).estimated_rows
        rows.append(
            [
                f"{(1 - long_fraction) * 100:.0f}%",
                round(ssc.confidence * 100, 1),
                actual,
                round(q_error(with_ssc, actual), 2),
                round(q_error(plain, actual), 2),
            ]
        )
    benchmark(lambda: db.plan(probe_sql(day)).estimated_rows)
    report(
        "E5 sweep: SSC quality vs estimation benefit (verified confidence "
        "replaces the stated 90%)",
        ["planted adherence", "measured conf %", "actual rows",
         "q-err w/ SSC", "q-err indep."],
        rows,
    )
    # Shape: with high adherence the SSC wins big; as adherence collapses
    # the blended estimate degrades toward (but not beyond 2x worse than)
    # plain independence.
    assert rows[0][3] < rows[0][4]
    assert rows[-1][3] <= rows[-1][4] * 2.0


def test_e05_twins_never_change_answers(scenario, benchmark):
    from repro.harness.runner import compare_optimizers

    for offset in (200, 600):
        compare_optimizers(scenario, probe_sql(YEAR_START + offset))
    benchmark(lambda: scenario.executor.execute(
        scenario.plan(probe_sql(YEAR_START + 200))
    ))


def _geometric_mean(values):
    import math

    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_e05_report_difference_predicate_hints(report, benchmark):
    """The paper's closing §5.1 example: "finding the number of projects
    completed in 5 days.  The predicate used in the query could be
    end_date - start_date <= 5" — estimated from a *family* of check SCs
    at several confidence levels (the "should the database also keep
    eps_70 and eps_80?" question answered with interpolation).
    """
    db = build_project_table(rows=20000, long_fraction=0.1, seed=83)
    for days, name in ((10, "d10"), (30, "d30"), (60, "d60")):
        db.add_soft_constraint(
            CheckSoftConstraint(
                name, "project", f"end_date <= start_date + {days}",
                confidence=0.5,
            ),
            verify_first=True,
        )
    rows = []
    for days in (3, 5, 15, 45, 120):
        predicate = f"end_date - start_date <= {days}"
        actual = db.query(
            f"SELECT count(*) AS n FROM project WHERE {predicate}"
        )[0]["n"]
        hinted = db.plan(
            f"SELECT id FROM project WHERE {predicate}"
        ).estimated_rows
        plain = Optimizer(db.database, None, OptimizerConfig()).optimize(
            f"SELECT id FROM project WHERE {predicate}"
        ).estimated_rows
        rows.append(
            [
                days,
                actual,
                round(hinted),
                round(q_error(hinted, actual), 2),
                round(plain),
                round(q_error(plain, actual), 2),
            ]
        )
    benchmark(lambda: db.plan("SELECT id FROM project WHERE end_date - start_date <= 5"))
    report(
        "E5 extension: difference-predicate hints from an SC family "
        "(P(duration <= 10d) ~ 0.30, <= 30d ~ 0.90, <= 60d ~ 0.91)",
        ["duration <= days", "actual", "est hinted", "q-err hinted",
         "est default", "q-err default"],
        rows,
    )
    import math

    hinted_mean = math.exp(
        sum(math.log(row[3]) for row in rows) / len(rows)
    )
    default_mean = math.exp(
        sum(math.log(row[5]) for row in rows) / len(rows)
    )
    assert hinted_mean < default_mean
    assert hinted_mean < 1.6


def test_e05_report_combiner_ablation(report, scenario, benchmark):
    """DESIGN.md's promised ablation: independence vs exponential backoff
    vs SSC twinning on the correlated-dates query.

    Exponential backoff is the generic "assume some correlation" hedge
    used by commercial optimizers; the SSC knows *which* columns correlate
    and by how much, so it should land closer to the truth than either.
    """
    from repro.optimizer.cardinality import CardinalityEstimator
    from repro.sql.parser import parse_expression

    rows = []
    errors = {"independence": [], "exp_backoff": [], "ssc twinning": []}
    for offset in (200, 500, 800):
        day = YEAR_START + offset
        actual = scenario.query(count_sql(day))[0]["n"]
        conjuncts = [
            parse_expression(f"start_date <= {day}"),
            parse_expression(f"end_date >= {day}"),
        ]
        independence = CardinalityEstimator(
            scenario.database, combiner="independence"
        ).scan_rows("project", conjuncts)
        backoff = CardinalityEstimator(
            scenario.database, combiner="exp_backoff"
        ).scan_rows("project", conjuncts)
        twinned = scenario.plan(probe_sql(day)).estimated_rows
        errors["independence"].append(q_error(independence, actual))
        errors["exp_backoff"].append(q_error(backoff, actual))
        errors["ssc twinning"].append(q_error(twinned, actual))
        rows.append(
            [
                f"+{offset}d",
                actual,
                round(independence),
                round(backoff),
                round(twinned),
            ]
        )
    benchmark(lambda: scenario.plan(probe_sql(YEAR_START + 500)))
    summary = [
        [name, round(_geometric_mean(values), 2)]
        for name, values in errors.items()
    ]
    report(
        "E5 ablation: selectivity combiners on the correlated-dates query",
        ["probe date", "actual", "independence", "exp backoff", "SSC twinning"],
        rows,
    )
    report(
        "E5 ablation summary (geometric-mean q-error)",
        ["combiner", "gmean q-error"],
        summary,
    )
    by_name = dict(summary)
    assert by_name["ssc twinning"] < by_name["exp_backoff"]
    assert by_name["ssc twinning"] < by_name["independence"]


def test_e05_report_virtual_columns(report, benchmark):
    """§5.1's *second* suggested mechanism: virtual columns.

    "The second is to combine multiple SSCs in virtual columns where the
    distribution statistics on the virtual column can be broken down into
    the individual SSCs."  A ``duration = end_date - start_date`` virtual
    column carries a full histogram, subsuming the whole SC family.
    """
    db = build_project_table(rows=20000, long_fraction=0.1, seed=84)
    db.runstats_virtual("project", "duration", "end_date - start_date")
    rows = []
    for days in (3, 5, 15, 45, 120):
        predicate = f"end_date - start_date <= {days}"
        actual = db.query(
            f"SELECT count(*) AS n FROM project WHERE {predicate}"
        )[0]["n"]
        estimate = db.plan(
            f"SELECT id FROM project WHERE {predicate}"
        ).estimated_rows
        rows.append(
            [days, actual, round(estimate), round(q_error(estimate, actual), 2)]
        )
    benchmark(
        lambda: db.plan(
            "SELECT id FROM project WHERE end_date - start_date <= 5"
        )
    )
    report(
        "E5 extension: virtual-column statistics "
        "(duration = end_date - start_date, 20-bucket histogram)",
        ["duration <= days", "actual", "estimate", "q-error"],
        rows,
    )
    import math

    gmean = math.exp(sum(math.log(row[3]) for row in rows) / len(rows))
    assert gmean < 1.1  # a real histogram beats the interpolated SC family

"""E16 — The production executor vs the oracle.

There are exactly two executors (DESIGN §3b): the production path —
batched and columnar, every compiled expression through its numpy
kernel — and the oracle, the interpreted row-at-a-time executor the
differential suites hold production to.  This file times the one against the other; both
are paths that run.

It replaces E11 (batched vs row-at-a-time, 4.0x), E12 (compiled vs
interpreted batches, 3.1x) and the old E16 (columnar vs list batches,
14.5x), whose baselines were executor cells nobody ran and which no
longer exist.  Their pipelines are all here: E11's scan-filter-aggregate
and hash-join probe, E12's predicate-heavy scan and join-project, E16's
predicate-rich scan and integer aggregate.  Emits ``BENCH_e16.json``
for ``check_bench_regression.py``.

``E16_FAST=1`` shrinks the table for CI smoke runs and writes its
results to a temporary directory; the recorded repository copy of
``BENCH_e16.json`` comes from a full run.
"""

import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from repro import SoftDB
from repro.executor.runtime import Executor

FAST = bool(os.environ.get("E16_FAST"))
ROWS = 60_000 if FAST else 300_000
BATCH_SIZE = 4096
#: Headline floor, far below the 300k-row recorded run (see
#: BENCH_e16.json), so it also holds on the 60k-row smoke table.
TARGET_SPEEDUP = 10.0
RESULTS_PATH = (
    Path(tempfile.mkdtemp(prefix="bench_e16_")) / "BENCH_e16.json"
    if FAST
    else Path(__file__).resolve().parent / "BENCH_e16.json"
)

HEADLINE_SQL = (
    "SELECT id, val FROM meas "
    "WHERE grp IN (3, 7, 11) AND val BETWEEN 100.0 AND 104.0"
)
#: (name, sql) per pipeline; the first is the headline.
PIPELINES = [
    ("predicate-rich-scan", HEADLINE_SQL),
    (
        "scan-filter-int-aggregate",
        "SELECT grp, count(*) AS n, sum(id) AS s FROM meas "
        "WHERE val > 250.0 GROUP BY grp",
    ),
    (
        "scan-filter-float-aggregate",
        "SELECT grp, count(*) AS n, sum(val) AS s FROM meas "
        "WHERE val > 250.0 GROUP BY grp",
    ),
    (
        "predicate-heavy-scan",
        "SELECT grp, count(*) AS n, sum(val) AS s FROM meas "
        "WHERE val * 3.0 + 7.0 > 500.0 AND val < 940.0 "
        "AND grp IN (1, 2, 3, 5, 8, 13, 21, 34) "
        "AND NOT (val BETWEEN 600.0 AND 601.5) "
        "AND (val % 97.0 > 5.0 OR grp = 7) "
        "GROUP BY grp",
    ),
    (
        "hash-join-probe",
        "SELECT m.grp, d.factor FROM meas m, dim d "
        "WHERE m.grp = d.grp AND m.val > 900.0",
    ),
    (
        "join-project",
        "SELECT m.grp, m.val * d.factor AS scaled FROM meas m, dim d "
        "WHERE m.grp = d.grp AND m.val > 800.0",
    ),
]


@pytest.fixture(scope="module")
def scenario() -> SoftDB:
    db = SoftDB()
    db.execute("CREATE TABLE meas (id INT, grp INT, val DOUBLE, flag INT)")
    db.execute("CREATE TABLE dim (grp INT, factor DOUBLE)")
    db.database.insert_many(
        "meas",
        [(i, i % 40, float(i % 997) + 0.5, i % 2) for i in range(ROWS)],
    )
    db.database.insert_many("dim", [(g, 1.0 + g / 10.0) for g in range(40)])
    db.runstats_all()
    return db


def _production(db: SoftDB) -> Executor:
    return Executor(db.database, batch_size=BATCH_SIZE)


def _oracle(db: SoftDB) -> Executor:
    return Executor(db.database, batch_size=0)


def _best_of(fn, repetitions: int = 3) -> float:
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _assert_identical(left, right):
    assert left.tuples() == right.tuples()
    assert left.page_reads == right.page_reads
    assert left.rows_read == right.rows_read


def test_e16_benchmark_production(benchmark, scenario):
    plan = scenario.plan(HEADLINE_SQL)
    executor = _production(scenario)
    result = benchmark(lambda: executor.execute(plan))
    assert result.row_count > 0


def test_e16_benchmark_oracle(benchmark, scenario):
    plan = scenario.plan(HEADLINE_SQL)
    executor = _oracle(scenario)
    result = benchmark(lambda: executor.execute(plan))
    assert result.row_count > 0


def test_e16_report_speedup_and_emit_json(report, benchmark, scenario):
    """The headline comparison: writes BENCH_e16.json and gates it."""
    pipelines = []
    for index, (name, sql) in enumerate(PIPELINES):
        plan = scenario.plan(sql)
        oracle, production = _oracle(scenario), _production(scenario)
        _assert_identical(production.execute(plan), oracle.execute(plan))
        oracle_s = _best_of(lambda: oracle.execute(plan))
        production_s = _best_of(lambda: production.execute(plan))
        pipelines.append(
            {
                "name": f"{name}-{ROWS // 1000}k",
                "sql": sql,
                "rows": ROWS,
                "batch_size": BATCH_SIZE,
                "oracle_s": round(oracle_s, 4),
                "production_s": round(production_s, 4),
                "speedup": round(oracle_s / production_s, 2),
                "target_speedup": TARGET_SPEEDUP if index == 0 else None,
            }
        )
    RESULTS_PATH.write_text(
        json.dumps(
            {
                "experiment": "E16",
                "cpu_count": os.cpu_count(),
                "fast_mode": FAST,
                "pipelines": pipelines,
            },
            indent=2,
        )
        + "\n"
    )
    plan = scenario.plan(HEADLINE_SQL)
    benchmark(lambda: _production(scenario).execute(plan))
    report(
        f"E16: production executor vs oracle ({ROWS} rows, "
        f"batch_size={BATCH_SIZE})",
        ["pipeline", "oracle s", "production s", "speedup x"],
        [
            [p["name"], p["oracle_s"], p["production_s"], p["speedup"]]
            for p in pipelines
        ],
    )
    assert pipelines[0]["speedup"] >= TARGET_SPEEDUP
    from check_bench_regression import check_regressions

    assert check_regressions(RESULTS_PATH) == []


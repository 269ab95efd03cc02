"""Differential equivalence: the production executor against the oracle.

Every query runs on the production executor (columnar + compiled) at
each batch size; the interpreted row-at-a-time executor is the oracle.  Every mode must
produce identical sorted result multisets, row counts, page-read totals,
*and errors* (a query that raises must raise the same error type and
message in every mode).  Corpora: the property SQL oracle generators
(reused from ``tests/property/test_property_sql_oracle.py``), rewrite
on/off optimizer configurations including every rewrite rule switched
off alone, an error workload (division by zero, type errors, folded
constant errors, a raising HAVING), and GROUP BY output: HAVING over
groups and over a scalar aggregate of no rows, and FD-carried columns.
"""

import dataclasses

import pytest
from hypothesis import given, settings

from repro import SoftDB
from repro.executor.runtime import ExecutionResult, Executor
from repro.expr.compile import CompiledExpr
from repro.feedback import FeedbackStore
from repro.harness.runner import all_off
from repro.optimizer.physical import GroupBy
from repro.optimizer.planner import (
    Optimizer,
    OptimizerConfig,
    attach_compiled_expressions,
)
from repro.optimizer.rewrite.engine import RULES
from repro.softcon.fd import FunctionalDependencySC
from repro.sql.parser import parse_expression
from repro.sql.printer import sql_of

from tests.property.test_property_sql_oracle import (
    _key,
    build_db,
    predicates,
    tables,
)

pytestmark = pytest.mark.differential

#: A stride-y batch size plus the default: small batches stress chunk
#: boundaries, the default stresses the everything-in-one-batch path.
BATCH_SIZES = (3, 1024)

CONFIGS = {
    "rewrites-on": OptimizerConfig(),
    "rewrites-off": all_off(),
    # Feedback collection must be invisible to query results: every mode
    # runs with its counters live while the oracle stays uninstrumented.
    "feedback-on": OptimizerConfig(collect_feedback=True),
}


def _executor(db: SoftDB, batch_size: int, config: OptimizerConfig) -> Executor:
    """An executor for one mode; feedback-collecting when configured."""
    feedback = FeedbackStore() if config.collect_feedback else None
    return Executor(db.database, batch_size=batch_size, feedback=feedback)


def _outcome(fn):
    """Run ``fn`` and capture either its result or its error identity."""
    try:
        return ("ok", fn())
    except Exception as error:  # noqa: BLE001 - any error must match modes
        return ("error", type(error).__name__, str(error))


def _plans(db: SoftDB, sql: str, config: OptimizerConfig):
    """The query's interpreted and compiled plans under ``config``."""
    interpreted = Optimizer(
        db.database,
        db.registry,
        dataclasses.replace(config, compile_expressions=False),
    ).optimize(sql)
    compiled = Optimizer(
        db.database,
        db.registry,
        dataclasses.replace(config, compile_expressions=True),
    ).optimize(sql)
    assert not interpreted.compiled
    assert compiled.compiled
    return interpreted, compiled


#: (name, batch_size) per production mode: every batch size.
MODES = [(f"production-{size}", size) for size in BATCH_SIZES]


def assert_differential(db: SoftDB, sql: str, config: OptimizerConfig) -> None:
    """Execute ``sql`` in every mode under ``config``; compare all."""
    interpreted, compiled = _plans(db, sql, config)
    oracle = _outcome(
        lambda: Executor(db.database, batch_size=0).execute(interpreted)
    )
    for name, batch_size in MODES:
        result = _outcome(
            lambda: _executor(db, batch_size, config).execute(compiled)
        )
        context = f"{sql!r} ({name})"
        if oracle[0] == "error":
            assert result == oracle, context
        else:
            assert result[0] == "ok", context
            assert result[1].executor.startswith("production"), context
            _assert_same(oracle[1], result[1], sql, name)


def _assert_same(
    oracle: ExecutionResult,
    batched: ExecutionResult,
    sql: str,
    mode: str,
) -> None:
    context = f"{sql!r} ({mode})"
    assert batched.columns == oracle.columns, context
    assert batched.row_count == oracle.row_count, context
    assert sorted(batched.tuples(), key=_key) == sorted(
        oracle.tuples(), key=_key
    ), context
    assert batched.page_reads == oracle.page_reads, context
    assert batched.rows_read == oracle.rows_read, context


@given(tables, predicates())
@settings(max_examples=60, deadline=None)
def test_select_where_differential(rows, predicate):
    db = build_db(rows)
    sql = f"SELECT a, b, c FROM t WHERE {sql_of(predicate)}"
    for config in CONFIGS.values():
        assert_differential(db, sql, config)


@given(tables, predicates())
@settings(max_examples=40, deadline=None)
def test_group_by_differential(rows, predicate):
    db = build_db(rows)
    sql = (
        f"SELECT a, count(*) AS n, sum(b) AS s, min(c) AS lo FROM t "
        f"WHERE {sql_of(predicate)} GROUP BY a"
    )
    for config in CONFIGS.values():
        assert_differential(db, sql, config)


@given(tables, predicates())
@settings(max_examples=30, deadline=None)
def test_order_distinct_differential(rows, predicate):
    db = build_db(rows)
    sql = (
        f"SELECT DISTINCT a, b FROM t WHERE {sql_of(predicate)} "
        f"ORDER BY a DESC, b"
    )
    for config in CONFIGS.values():
        assert_differential(db, sql, config)


@given(tables)
@settings(max_examples=20, deadline=None)
def test_scalar_aggregates_differential(rows):
    db = build_db(rows)
    sql = (
        "SELECT count(*) AS n, count(b) AS nb, sum(b) AS s, "
        "min(b) AS lo, max(b) AS hi, avg(b) AS mean FROM t"
    )
    for config in CONFIGS.values():
        assert_differential(db, sql, config)


# -- per-rewrite-switch sweep on a fixed multi-operator workload ------------


def _workload_db() -> SoftDB:
    db = SoftDB()
    db.execute(
        "CREATE TABLE emp (id INT PRIMARY KEY, dept_id INT, salary DOUBLE, "
        "age INT)"
    )
    db.execute("CREATE TABLE dept (id INT PRIMARY KEY, budget DOUBLE)")
    db.execute("CREATE INDEX ix_emp_age ON emp (age)")
    db.database.insert_many(
        "dept", [(d, float(100 * d)) for d in range(1, 6)]
    )
    db.database.insert_many(
        "emp",
        [
            (i, (i % 5) + 1 if i % 7 else None, float(i % 90) + 1.0, 20 + i % 45)
            for i in range(400)
        ],
    )
    db.runstats_all()
    return db


WORKLOAD = [
    "SELECT id, salary FROM emp WHERE age BETWEEN 30 AND 40",
    "SELECT e.id, d.budget FROM emp e, dept d WHERE e.dept_id = d.id "
    "AND d.budget > 200.0",
    "SELECT dept_id, count(*) AS n, avg(salary) AS pay FROM emp "
    "GROUP BY dept_id",
    "SELECT DISTINCT age FROM emp WHERE salary > 45.0 ORDER BY age",
    "SELECT id FROM emp WHERE age > 25 ORDER BY salary DESC LIMIT 17",
    "SELECT dept_id, count(*) AS n FROM emp GROUP BY dept_id "
    "HAVING avg(salary) > 43.0 OR count(*) < 60",
]

#: Each rewrite rule switched off alone, with all-on and all-off around
#: them.
REWRITE_SWITCHES = {f"enable_{rule}": {rule} for rule in RULES}
SWITCHES = {"all-on": set(), "all-off": set(RULES), **REWRITE_SWITCHES}


@pytest.mark.parametrize("switch", list(SWITCHES))
def test_rewrite_configurations_differential(switch):
    """Every rewrite rule individually off (plus all-on / all-off)."""
    db = _workload_db()
    config = OptimizerConfig(disabled_rules=SWITCHES[switch])
    for sql in WORKLOAD:
        # LIMIT needs no carve-out: batched scans clamp their fetch to the
        # remaining quota, so page accounting matches the oracle exactly.
        assert_differential(db, sql, config)


# -- error parity: every mode must raise the same error --------------------

#: Queries that raise during execution — division by zero (dynamic and
#: constant-folded), non-numeric arithmetic, LIKE over a number, and a
#: non-boolean predicate.  ``assert_differential`` captures the outcome,
#: so every mode must produce the identical error type and message.
ERROR_WORKLOAD = [
    "SELECT id, salary / (age - age) AS broken FROM emp",
    "SELECT 1 / 0 AS boom FROM emp",
    "SELECT id FROM emp WHERE salary + 'oops' > 0.0",
    "SELECT id FROM emp WHERE age LIKE 'x%'",
    "SELECT id FROM emp WHERE NOT salary",
    "SELECT id FROM emp WHERE (salary > 1.0) AND age",
    "SELECT dept_id, count(*) AS n FROM emp GROUP BY dept_id "
    "HAVING 1 / (count(*) - count(*)) > 0",
]


@pytest.mark.parametrize("sql", ERROR_WORKLOAD)
def test_error_workload_differential(sql):
    db = _workload_db()
    for config in CONFIGS.values():
        assert_differential(db, sql, config)
    # Sanity: these must actually error in the oracle, or the parity
    # comparison above degenerates to the ok-path.
    interpreted, _ = _plans(db, sql, OptimizerConfig())
    outcome = _outcome(
        lambda: Executor(db.database, batch_size=0).execute(interpreted)
    )
    assert outcome[0] == "error", sql


# -- GROUP BY output: HAVING over the groups, FD-carried columns -------------


@pytest.mark.parametrize(
    "having, rows", [("n = 0", 1), ("n > 0", 0), ("1 / (n - n) > 0", None)]
)
def test_scalar_having_over_empty_input_differential(having, rows):
    """A scalar aggregate over no rows emits one all-default row, which
    HAVING keeps, drops, or fails on.  The grammar takes HAVING only
    after GROUP BY, so the HAVING is set on the plans by hand."""
    db = _workload_db()
    sql = "SELECT count(*) AS n FROM emp WHERE age > 1000"
    interpreted, compiled = _plans(db, sql, OptimizerConfig())
    for plan in (interpreted, compiled):
        (group,) = [
            node for node in _nodes(plan.root) if isinstance(node, GroupBy)
        ]
        assert not group.keys
        group.having = parse_expression(having)
    attach_compiled_expressions(compiled)
    oracle = _outcome(
        lambda: Executor(db.database, batch_size=0).execute(interpreted)
    )
    if rows is None:
        assert oracle[0] == "error"
    else:
        assert oracle[1].row_count == rows
    for name, batch_size in MODES:
        result = _outcome(
            lambda: Executor(db.database, batch_size=batch_size).execute(
                compiled
            )
        )
        if rows is None:
            assert result == oracle, name
        else:
            _assert_same(oracle[1], result[1], f"{sql} HAVING {having}", name)


def _fd_db() -> SoftDB:
    db = SoftDB()
    db.execute(
        "CREATE TABLE addr (id INT PRIMARY KEY, city INT, state INT, pop INT)"
    )
    db.database.insert_many(
        "addr", [(i, i % 12, i % 12 % 4, i % 37) for i in range(300)]
    )
    db.runstats_all()
    db.add_soft_constraint(
        FunctionalDependencySC("fd_city_state", "addr", ["city"], ["state"]),
        verify_first=True,
    )
    return db


def test_fd_carried_group_columns_differential():
    """An FD soft constraint drops ``state`` from the hash key; the group
    operator still emits it, carried from each group's first row."""
    db = _fd_db()
    sql = (
        "SELECT city, state, count(*) AS n, sum(pop) AS p FROM addr "
        "GROUP BY city, state HAVING sum(pop) > 440"
    )
    _, compiled = _plans(db, sql, OptimizerConfig())
    (group,) = [node for node in _nodes(compiled.root) if isinstance(node, GroupBy)]
    assert [column.column for column in group.carried] == ["state"]
    for config in CONFIGS.values():
        assert_differential(db, sql, config)


# -- routing: batch_size == 0 or no closures means the oracle ---------------


def _nodes(node):
    yield node
    for child in node.children():
        yield from _nodes(child)


def test_uncompiled_plan_runs_on_the_oracle():
    """A ``compile_expressions=False`` plan handed to a default executor
    is interpreted row-at-a-time: no batch is ever counted."""
    db = _workload_db()
    interpreted, _ = _plans(db, WORKLOAD[1], OptimizerConfig())
    result = Executor(db.database).execute(interpreted, instrument=True)
    assert result.executor == "oracle"
    for node in _nodes(interpreted.root):
        assert node.actual_batches is None, node
    assert interpreted.root.actual_rows == result.row_count


def test_batch_size_zero_interprets_a_compiled_plan():
    """The oracle never calls anything compiled, even when the plan
    carries it: with every closure and kernel poisoned, ``batch_size=0``
    still answers — while the production executor trips the poison."""
    db = _workload_db()

    def poisoned(*_args):
        raise AssertionError("called a compiled closure or kernel")

    for sql in WORKLOAD:
        interpreted, compiled = _plans(db, sql, OptimizerConfig())
        expected = Executor(db.database, batch_size=0).execute(interpreted)
        for node in _nodes(compiled.root):
            for name in vars(node):
                if name.startswith("compiled_") and getattr(node, name):
                    setattr(node, name, _poison(getattr(node, name), poisoned))
        result = Executor(db.database, batch_size=0).execute(compiled)
        assert result.executor == "oracle"
        assert result.tuples() == expected.tuples(), sql
        with pytest.raises(AssertionError, match="compiled closure or kernel"):
            Executor(db.database).execute(compiled)


def _poison(slot, poisoned):
    """Poison a ``compiled_*`` slot: a compiled expression (its closure
    and its kernel), a ``(closure, ascending)`` sort pass, or a list of
    either with None entries."""
    if isinstance(slot, list):
        return [None if item is None else _poison(item, poisoned) for item in slot]
    if isinstance(slot, tuple):
        return (poisoned, slot[1])
    compiled = CompiledExpr(slot.expression, poisoned)
    compiled.kernel = poisoned
    return compiled

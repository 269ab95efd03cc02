"""The operators above the scans on numpy, and the scans' column sets.

Sort, DISTINCT and aggregation run on numpy in the production executor
(one ``np.lexsort``, ``factorise`` codes, ``fold_groups``); each is held
here to the row-at-a-time oracle on the inputs where numpy and Python
disagree most easily: NULLs, NaN, signed zeros, the int64 minimum,
``1``/``1.0``/``True``, mixed types and keys repeated across batches.

Scans emit only the columns their plan reads (``read_columns``, set with
the compiled expressions).  The second half pins what that must not
change: errors, the columns a result and a GROUP BY's carried columns
show, and — over every corpus query — EXPLAIN ANALYZE text, I/O
counters, row counts and answers, against the same plans with every
scan emitting every column.
"""

import datetime
import hashlib

import numpy as np
import pytest

from repro import SoftDB
from repro.corpus.generator import generate_corpus
from repro.errors import ExpressionError
from repro.executor import scans, sorts
from repro.executor.aggregates import _INT_FOLD_SAFE
from repro.executor.batch import RowBatch
from repro.executor.vecbatch import ColumnImage
from repro.executor.runtime import Executor
from repro.executor.vectorized import BatchedInterpreter
from repro.expr.compile import compile_expr
from repro.harness.classify import validate_rows
from repro.optimizer.compilation import attach_compiled_expressions
from repro.optimizer.explain import explain
from repro.optimizer.logical import Aggregate
from repro.optimizer.physical import (
    Distinct,
    Filter,
    GroupBy,
    HashJoin,
    IndexScan,
    Limit,
    PhysicalPlan,
    Project,
    SeqScan,
    Sort,
    UnionAll,
)
from repro.optimizer.planner import OptimizerConfig
from repro.sql.parser import parse_expression
from repro.workload.tpc import build_tpc_db

pytestmark = pytest.mark.differential

BATCH_SIZES = (1, 3, 1024)

LEAF = "leaf"


class _RowOracle(Executor):
    """The oracle's operators over a fixed list of row dicts."""

    def __init__(self, rows):
        super().__init__(None, batch_size=0)
        self.leaf_rows = rows

    def _run(self, node):
        return iter(self.leaf_rows) if node == LEAF else super()._run(node)


class _Batched(BatchedInterpreter):
    """The production operators over fixed batches."""

    def __init__(self, batches, batch_size):
        super().__init__(None, batch_size)
        self.leaf_batches = batches

    def run(self, node, quota=None):
        if node == LEAF:
            return iter(self.leaf_batches)
        return super().run(node, quota)


def _batches(rows, batch_size):
    """``batch_size`` chunks of ``rows``, in turn built, backed by storage
    tuples and backed by an image chunk: operators read each alike."""
    out = []
    for start in range(0, len(rows), batch_size):
        chunk = rows[start : start + batch_size]
        names = tuple(chunk[0])
        positions = tuple(range(len(names)))
        stored = [tuple(row.get(name) for name in names) for row in chunk]
        out.append((
            RowBatch.from_rows(chunk, names),
            RowBatch.from_tuples(names, positions, stored),
            RowBatch.from_image(names, positions, ColumnImage(stored)),
        )[len(out) % 3])
    return out


def _exact(rows):
    """Rows with each value's type and repr: 1, 1.0, True, -0.0 and two
    NaNs all tell apart."""
    return [
        {name: (type(value), repr(value)) for name, value in row.items()}
        for row in rows
    ]


# ---------------------------------------------------------------- sort


def _sort_node(*keys):
    node = Sort(LEAF, [(parse_expression(text), ascending) for text, ascending in keys])
    node.compiled_order = [
        (compile_expr(expression), ascending)
        for expression, ascending in node.order
    ]
    return node


def _sorted_both(node, rows, batch_size):
    oracle = list(sorts.run_sort(node, iter(rows)))
    produced = [
        row
        for batch in sorts.run_sort_batched(node, iter(_batches(rows, batch_size)), batch_size)
        for row in batch.to_rows()
    ]
    return produced, oracle


@pytest.fixture
def decorated_calls(monkeypatch):
    """How many times the decorated fallback ran."""
    calls = []
    original = sorts._decorated_order

    def counting(passes):
        calls.append(len(passes))
        return original(passes)

    monkeypatch.setattr(sorts, "_decorated_order", counting)
    return calls


def _tagged(values):
    return [{"k": value, "tag": tag} for tag, value in enumerate(values)]


SORT_CASES = {
    # name: (values, takes the lexsort path)
    "ints_with_nulls": ([3, None, -1, 3, None, 0, 2**40, -(2**40)], True),
    "floats_signed_zero_ties": ([0.0, -0.0, 1.5, -0.0, 0.0, None, -2.5], True),
    "int64_min": ([5, -(2**63), 2**63 - 1, 0, -(2**63), None], True),
    "strings": (["b", None, "a", "B", "", "a", "ab"], True),
    "dates": (
        [datetime.date(2001, 5, 1), None, datetime.date(1999, 1, 1),
         datetime.date(2001, 5, 1), datetime.date(2030, 12, 31)],
        True,
    ),
    "bools": ([True, None, False, True, False], True),
    "all_null": ([None, None, None], True),
    "wide_ints": ([2**70, 5, None, -(2**70), 5], True),
    "nan": ([1.0, float("nan"), None, -1.0, float("nan"), 0.5], False),
    "int_float_mix": ([1, 1.0, 0.5, None, 2, True], False),
    "str_int_mix": (["a", 1, None, "b", 2], False),
}


@pytest.mark.parametrize("case", sorted(SORT_CASES))
@pytest.mark.parametrize("ascending", [True, False])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_sort_matches_oracle(case, ascending, batch_size, decorated_calls):
    values, lexsorted = SORT_CASES[case]
    node = _sort_node(("k", ascending))
    rows = _tagged(values)
    try:
        produced, oracle = _sorted_both(node, rows, batch_size)
    except TypeError as error:  # the oracle cannot order the mix either
        with pytest.raises(TypeError) as production_error:
            _sorted_both(node, rows, batch_size)
        assert str(production_error.value) == str(error)
        assert not lexsorted
        return
    assert _exact(produced) == _exact(oracle)
    assert bool(decorated_calls) == (not lexsorted)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_multi_key_ties_keep_input_order(batch_size, decorated_calls):
    rows = [
        {"a": a, "b": b, "c": c, "tag": tag}
        for tag, (a, b, c) in enumerate(
            [(1, "x", 0.5), (0, "y", None), (1, "x", 0.5), (None, "x", 0.5),
             (0, "y", None), (1, None, -0.0), (1, None, 0.0), (None, "x", 0.5)]
            * 3
        )
    ]
    for keys in (
        (("a", True), ("b", True)),
        (("a", False), ("b", True), ("c", False)),
        (("b", False), ("c", True)),
        (("c", False), ("a", False)),
    ):
        node = _sort_node(*keys)
        produced, oracle = _sorted_both(node, rows, batch_size)
        assert _exact(produced) == _exact(oracle), keys
    assert not decorated_calls


def test_sort_evaluates_keys_last_first_as_the_oracle():
    """An error in two keys is the last key's, on both executors."""
    node = _sort_node(("a + 1", True), ("b + 1", True))
    rows = [{"a": "x", "b": "y"}, {"a": 1, "b": 2}]
    with pytest.raises(ExpressionError) as oracle:
        list(sorts.run_sort(node, iter(rows)))
    with pytest.raises(ExpressionError) as production:
        list(sorts.run_sort_batched(node, iter(_batches(rows, 4)), 4))
    assert str(production.value) == str(oracle.value)


def test_limit_over_a_sort_gathers_only_the_first_chunk(monkeypatch):
    db = SoftDB(OptimizerConfig(batch_size=8))
    db.execute("CREATE TABLE t (a INT, b INT)")
    db.database.insert_many("t", [(i, (i * 7) % 50) for i in range(200)])
    db.runstats_all()
    sql = "SELECT a, b FROM t ORDER BY b DESC, a LIMIT 5"
    expected = Executor(db.database, batch_size=0).execute(db.plan(sql)).tuples()
    taken = []
    original = RowBatch.take

    def counting(self, indices):
        taken.append(len(indices))
        return original(self, indices)

    monkeypatch.setattr(RowBatch, "take", counting)
    assert db.execute(sql).tuples() == expected
    assert taken == [8], "one batch_size chunk of the 200-row permutation"


# ------------------------------------------------------------ distinct


DISTINCT_CASES = {
    "one_float_true": [1, 1.0, True, 2, 1, True, 2.0, 0, False, 0.0],
    "nan_objects": None,  # built per run: one NaN object twice, another once
    "nulls": [None, 1, None, 2, 1, None],
    "str_int_mix": ["1", 1, "1", 1.0, "a", None, "a"],
    "dates": [datetime.date(2001, 1, 1), None, datetime.date(2001, 1, 1), "2001-01-01"],
}


def _distinct_rows(case):
    if case == "nan_objects":
        nan, other = float("nan"), float("nan")
        values = [nan, 1.0, nan, other, None, 1.0, nan]
    else:
        values = DISTINCT_CASES[case]
    # A second column repeats every key across batches at every size.
    return [
        {"k": value, "g": index % 2} for index, value in enumerate(values * 3)
    ]


@pytest.mark.parametrize("case", sorted(DISTINCT_CASES))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_distinct_matches_oracle(case, batch_size):
    rows = _distinct_rows(case)
    node = Distinct(LEAF)
    oracle = list(_RowOracle(rows)._run_distinct(node))
    produced = [
        row
        for batch in _Batched(_batches(rows, batch_size), batch_size)._run_distinct(node, None)
        for row in batch.to_rows()
    ]
    assert _exact(produced) == _exact(oracle)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_distinct_sql_matches_oracle(batch_size):
    db = SoftDB(OptimizerConfig(batch_size=batch_size))
    db.execute("CREATE TABLE t (a INT, b DOUBLE, c VARCHAR(4))")
    db.database.insert_many(
        "t",
        [(i % 4, None if i % 5 == 0 else float(i % 3), f"c{i % 2}") for i in range(40)],
    )
    db.runstats_all()
    oracle = Executor(db.database, batch_size=0)
    for sql in (
        "SELECT DISTINCT a, b FROM t",
        "SELECT DISTINCT c FROM t",
        "SELECT DISTINCT b, c FROM t WHERE a > 0",
        "SELECT DISTINCT a FROM t ORDER BY a DESC",
    ):
        plan = db.plan(sql)
        assert db.execute(sql).tuples() == oracle.execute(plan).tuples(), sql


# ---------------------------------------------------------- aggregates


def _aggregate_node(keys, *aggregates):
    specs = [
        Aggregate(
            function=function,
            argument=None if argument is None else parse_expression(argument),
            distinct=distinct,
            output_name=f"{function}_{index}",
        )
        for index, (function, argument, distinct) in enumerate(aggregates)
    ]
    node = GroupBy(LEAF, [parse_expression(key) for key in keys], specs)
    node.compiled_keys = [compile_expr(key) for key in node.keys]
    node.compiled_carried = []
    node.compiled_having = None
    node.compiled_aggregate_args = [
        None if spec.argument is None else compile_expr(spec.argument)
        for spec in specs
    ]
    return node


ALL_FOLDS = [
    ("count", None, False),
    ("count", "v", False),
    ("sum", "v", False),
    ("avg", "v", False),
    ("min", "v", False),
    ("max", "v", False),
    ("count", "v", True),
    ("sum", "v", True),
    ("avg", "v", True),
    ("min", "v", True),
    ("max", "v", True),
]


def _aggregated_both(node, rows, batch_size):
    oracle = list(_RowOracle(rows)._run_group_by(node))
    produced = [
        row
        for batch in _Batched(_batches(rows, batch_size), batch_size)._run_group_by(node)
        for row in batch.to_rows()
    ]
    return produced, oracle


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_scalar_aggregation_over_empty_input(batch_size):
    node = _aggregate_node([], *ALL_FOLDS)
    produced, oracle = _aggregated_both(node, [], batch_size)
    assert _exact(produced) == _exact(oracle)
    assert [row["count_0"] for row in produced] == [0]


@pytest.mark.parametrize("keys", [[], ["g"]])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("values", [
    [5, None, -3, 12, None, 0, 7, 12, -(2**40)],
    [2**61, 2**61, 7],  # n * max|v| past the guard: Python's sum
    [2**60, 2**60, 2**60, -(2**60)],  # exactly 2**62: Python's sum
    [2**60 - 1, -(2**60 - 1), 2**60 - 1, 1],  # just inside: numpy
    [2**63 - 1, -(2**63), None],  # MIN/MAX at the int64 edges
    [2**70, 1, None],  # wider than int64
    [None, None],
])
def test_int_folds_match_oracle(keys, batch_size, values):
    node = _aggregate_node(keys, *ALL_FOLDS)
    rows = [{"g": index % 2, "v": value} for index, value in enumerate(values * 2)]
    produced, oracle = _aggregated_both(node, rows, batch_size)
    assert _exact(produced) == _exact(oracle)


def test_int_sum_guard_boundary():
    """``n * max|v|`` at ``_INT_FOLD_SAFE`` leaves numpy; just under, the
    int64 fold is exact."""
    at = [_INT_FOLD_SAFE // 4] * 4
    below = [_INT_FOLD_SAFE // 4 - 1] * 4
    for values in (at, below):
        node = _aggregate_node([], ("sum", "v", False), ("avg", "v", False))
        produced, oracle = _aggregated_both(node, [{"v": v} for v in values], 1024)
        assert _exact(produced) == _exact(oracle)
        assert produced[0]["sum_0"] == sum(values)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_distinct_aggregates_repeat_across_batches(batch_size):
    node = _aggregate_node(["g"], *ALL_FOLDS)
    values = [1, 2, 2, None, 1, 3, 3, 1, -4, None]
    rows = [{"g": index % 3, "v": value} for index, value in enumerate(values * 4)]
    produced, oracle = _aggregated_both(node, rows, batch_size)
    assert _exact(produced) == _exact(oracle)


def test_scalar_float_folds_match_oracle():
    node = _aggregate_node([], *ALL_FOLDS)
    values = [0.5, -0.0, None, 1e16, 1.0, -1e16, float("inf"), 0.0]
    rows = [{"v": value} for value in values]
    produced, oracle = _aggregated_both(node, rows, 1024)
    assert _exact(produced) == _exact(oracle)


# ------------------------------------------------------ scan column sets


@pytest.fixture(scope="module")
def two_tables():
    db = SoftDB()
    db.execute("CREATE TABLE a (id INT PRIMARY KEY, x INT, y INT, s VARCHAR(10))")
    db.execute("CREATE TABLE b (id INT PRIMARY KEY, a_id INT, z INT)")
    db.database.insert_many("a", [(i, i % 3, i % 5, f"s{i % 4}") for i in range(30)])
    db.database.insert_many("b", [(i, i % 30, i % 7) for i in range(60)])
    db.runstats_all()
    return db


def _scans(node):
    if isinstance(node, (SeqScan, IndexScan)):
        return [node]
    return [scan for child in node.children() for scan in _scans(child)]


def _emitted(db, plan):
    """Per scanned table, the qualified names of the columns it emits."""
    return {
        scan.table_name: set(scans._layout(scan, db.database.table(scan.table_name))[0])
        for scan in _scans(plan.root)
    }


def _both(db, plan):
    production = db.executor.execute(plan)
    oracle = Executor(db.database, batch_size=0).execute(plan)
    return production, oracle


def test_an_ambiguous_unqualified_column_still_raises(two_tables):
    """``id`` names a column of both scans; the join reads ``a.id`` and
    ``b.a_id`` besides, and the ambiguity must survive the column sets."""
    db = two_tables
    join = HashJoin(
        SeqScan("a", "a"),
        SeqScan("b", "b"),
        [parse_expression("a.id")],
        [parse_expression("b.a_id")],
    )
    plan = PhysicalPlan(
        Project(Filter(join, parse_expression("id > 3")), ["x"], ["a.x"]), ["x"]
    )
    attach_compiled_expressions(plan)
    assert _emitted(db, plan) == {"a": {"a.id", "a.x"}, "b": {"b.id", "b.a_id"}}
    with pytest.raises(ExpressionError) as oracle:
        Executor(db.database, batch_size=0).execute(plan)
    with pytest.raises(ExpressionError) as production:
        db.executor.execute(plan)
    assert str(production.value) == str(oracle.value) == "ambiguous column 'id'"


def test_a_distinct_over_a_non_project_child_keeps_every_column(two_tables):
    """The Project above reads only ``a.x``; the Distinct below it still
    tells rows apart by every column."""
    db = two_tables
    scan = SeqScan("a", "a", parse_expression("a.y < 3"))
    plan = PhysicalPlan(Project(Distinct(scan), ["x"], ["a.x"]), ["x"])
    attach_compiled_expressions(plan)
    assert scan.read_columns is None
    production, oracle = _both(db, plan)
    assert production.tuples() == oracle.tuples()
    assert production.row_count == 18


def test_the_caller_reads_every_column_of_a_non_project_root(two_tables):
    db = two_tables
    scan = SeqScan("a", "a", parse_expression("a.x = 1"))
    plan = PhysicalPlan(Limit(Distinct(scan), 100), ["a.id", "a.x", "a.y", "a.s"])
    attach_compiled_expressions(plan)
    assert scan.read_columns is None
    production, oracle = _both(db, plan)
    assert production.rows == oracle.rows
    assert list(production.rows[0]) == ["a.id", "a.x", "a.y", "a.s"]


def test_a_union_all_branch_reads_its_source_names(two_tables):
    db = two_tables
    sql = "SELECT x FROM a WHERE y > 1 UNION ALL SELECT z FROM b WHERE a_id < 4"
    plan = db.plan(sql)
    projects = [node for node in plan.root.children() if isinstance(node, Project)]
    assert [project.source_names for project in projects] == [["x"], ["z"]]
    assert _emitted(db, plan) == {"a": {"a.x", "a.y"}, "b": {"b.a_id", "b.z"}}
    production, oracle = _both(db, plan)
    assert production.tuples() == oracle.tuples()


def test_a_project_reads_its_source_names(two_tables):
    """Branches renamed straight off the scans: only ``source_names``
    say which columns the scans must keep."""
    db = two_tables
    plan = PhysicalPlan(
        UnionAll([
            Project(SeqScan("a", "a", parse_expression("a.y > 1")), ["v"], ["a.x"]),
            Project(SeqScan("b", "b"), ["v"], ["b.z"]),
        ]),
        ["v"],
    )
    attach_compiled_expressions(plan)
    assert _emitted(db, plan) == {"a": {"a.x", "a.y"}, "b": {"b.z"}}
    production, oracle = _both(db, plan)
    assert production.tuples() == oracle.tuples()
    assert None not in production.column("v")


def test_group_by_carried_columns_come_through(two_tables):
    db = two_tables
    sql = (
        "SELECT a.id, a.s, count(*) AS n FROM a JOIN b ON a.id = b.a_id "
        "GROUP BY a.id, a.s"
    )
    plan = db.plan(sql)
    groups = [node for node in _walk(plan.root) if isinstance(node, GroupBy)]
    assert groups and groups[0].carried, "the FD carries a.s"
    assert _emitted(db, plan) == {"a": {"a.id", "a.s"}, "b": {"b.a_id"}}
    production, oracle = _both(db, plan)
    assert production.tuples() == oracle.tuples()
    assert {row[1] for row in production.tuples()} == {"s0", "s1", "s2", "s3"}


def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)


def test_select_star_keeps_every_column(two_tables):
    db = two_tables
    plan = db.plan("SELECT * FROM a WHERE x = 1")
    assert _emitted(db, plan) == {"a": {"a.id", "a.x", "a.y", "a.s"}}
    production, oracle = _both(db, plan)
    assert production.rows == oracle.rows
    assert production.columns == ["id", "x", "y", "s"]


# ------------------------------------- every corpus query, both column sets


@pytest.fixture(scope="module")
def warehouse():
    return build_tpc_db(scale_factor=0.5)


CORPUS = sorted({query.sql for seed in (0, 1) for query in generate_corpus(seed)})


def _observed(db, plan):
    result = db.executor.execute(plan, instrument=True)
    answer = hashlib.sha256(repr(result.tuples()).encode()).hexdigest()
    return (
        explain(plan),
        result.page_reads,
        result.rows_read,
        result.row_count,
        answer,
        result.rows,
    )


@pytest.mark.parametrize("at", range(0, len(CORPUS), 16))
def test_corpus_runs_as_with_every_column(warehouse, at):
    """EXPLAIN ANALYZE text, pages and rows read, row counts and an
    order-sensitive answer hash: the same with the scans' column sets as
    with every scan emitting every column; and the oracle's answer."""
    for sql in CORPUS[at : at + 16]:
        plan = warehouse.plan(sql)
        pruned = _observed(warehouse, plan)
        for scan in _scans(plan.root):
            scan.read_columns = None
        assert _observed(warehouse, plan) == pruned, sql
        # Production adds floats per batch, the oracle row by row: the
        # harness's checksum compares them.
        oracle = Executor(warehouse.database, batch_size=0).execute(plan)
        assert validate_rows(warehouse.execute(sql).tuples(), oracle.tuples()).ok, sql

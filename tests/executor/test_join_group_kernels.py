"""The factorised hash join and GROUP BY kernels, held to their references.

Both operators turn keys into int64 codes (``repro.executor.vecbatch.
factorise``), except keys that cannot be sorted, which take the dict
fallback.  Over generated key columns — ints with NULLs and duplicates,
the int64 limits, ints past int64, ``1`` vs ``1.0`` vs ``True``,
strings, dates, NaN, two-column keys and unsortable mixes — each case
must give the oracle's rows *in the oracle's order*, at batch sizes 1,
7 and 1024.

Float SUM/AVG is the one fold whose association differs from the
oracle's (which adds row by row across batches): the production
interpreter folds each batch's group slice and adds that to the running
total.  Those results are held bit for bit (``float.hex``) to
:meth:`AggregateState.update_values` fed the same per-batch, per-group
slices.  ``np.add.at`` repeats ``sum()`` only where ``sum()`` is a plain
fold (before Python 3.12); later Pythons fold through ``update_values``.

The coverage tests pin *which* path runs: every hash join and keyed
GROUP BY of the corpus takes the factorised path, and mixed-type keys
still reach the fallback and still match the oracle.
"""

import datetime
from typing import Any, Dict, List, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SoftDB
from repro.corpus.generator import generate_corpus
from repro.executor import aggregates, vecbatch
from repro.executor.aggregates import AggregateState, new_states
from repro.executor.batch import RowBatch
from repro.executor.joins import run_hash_join, run_hash_join_batched
from repro.executor.runtime import Executor
from repro.executor.vectorized import BatchedInterpreter
from repro.expr.compile import compile_expr
from repro.optimizer.logical import Aggregate
from repro.optimizer.physical import GroupBy, HashJoin
from repro.optimizer.planner import OptimizerConfig
from repro.sql.parser import parse_expression
from repro.workload.tpc import build_tpc_db

pytestmark = pytest.mark.differential

BATCH_SIZES = (1, 7, 1024)
LEAF = "leaf"
NAN = float("nan")

# -- generated key columns ------------------------------------------------------

_INT64_MAX = 2**63 - 1
_SCALARS = {
    "int": st.integers(-3, 3),
    "int64-limits": st.sampled_from([_INT64_MAX, -_INT64_MAX, 0, 1]),
    "past-int64": st.sampled_from([2**64, 2**64 + 1, -(2**70), 5]),
    "one-ish": st.sampled_from([1, 1.0, True, 0, 0.0, False, 2]),
    "str": st.sampled_from(["", "a", "b", "ab"]),
    "date": st.sampled_from(
        [datetime.date(2020, 1, d) for d in (1, 2, 3)]
    ),
    # One shared NaN object and fresh ones: identity must not matter.
    "nan": st.sampled_from([NAN, 1.5, -0.0, 0.0]) | st.builds(float, st.just("nan")),
    "unsortable": st.sampled_from([1, "1", 2, "b", datetime.date(2020, 1, 1)]),
}
KINDS = sorted(_SCALARS)


def _values(kind: str) -> st.SearchStrategy:
    # NULL in about one draw of three.
    return st.one_of(st.none(), _SCALARS[kind], _SCALARS[kind])


@st.composite
def key_rows(draw, prefix: str, kinds: Sequence[str], max_size: int = 40):
    """Row dicts with ``len(kinds)`` key columns and a row id."""
    size = draw(st.integers(0, max_size))
    rows = []
    for row_id in range(size):
        row = {f"{prefix}.id": row_id}
        for position, kind in enumerate(kinds):
            row[f"{prefix}.k{position}"] = draw(_values(kind))
        rows.append(row)
    return rows


key_kinds = st.lists(st.sampled_from(KINDS), min_size=1, max_size=2)


def _batches(rows: List[Dict[str, Any]], columns, batch_size: int):
    return [
        RowBatch.from_rows(rows[start:start + batch_size], columns)
        for start in range(0, len(rows), batch_size)
    ]


def _exact(rows: List[Dict[str, Any]]) -> List[List[Any]]:
    """Rows as comparable lists: floats by their bits, so ``1`` vs
    ``1.0`` vs ``True``, ``-0.0`` vs ``0.0`` and NaN all stay apart."""
    def exact(value: Any) -> Any:
        if isinstance(value, float):
            return ("float", value.hex())
        return (type(value).__name__, value)

    return [[(name, exact(value)) for name, value in row.items()] for row in rows]


# -- the join -----------------------------------------------------------------------


def _join_node(kinds: Sequence[str]) -> HashJoin:
    node = HashJoin(
        LEAF + "L",
        LEAF + "R",
        [parse_expression(f"l.k{i}") for i in range(len(kinds))],
        [parse_expression(f"r.k{i}") for i in range(len(kinds))],
    )
    node.compiled_left_keys = [compile_expr(key) for key in node.left_keys]
    node.compiled_right_keys = [compile_expr(key) for key in node.right_keys]
    return node


def _join_both(kinds, left, right, batch_size):
    node = _join_node(kinds)
    left_columns = ["l.id"] + [f"l.k{i}" for i in range(len(kinds))]
    right_columns = ["r.id"] + [f"r.k{i}" for i in range(len(kinds))]
    rows = {node.left: left, node.right: right}
    oracle = list(run_hash_join(node, lambda child: iter(rows[child])))
    batches = {
        node.left: _batches(left, left_columns, batch_size),
        node.right: _batches(right, right_columns, batch_size),
    }
    produced = [
        row
        for batch in run_hash_join_batched(
            node, lambda child: iter(batches[child]), batch_size
        )
        for row in batch.to_rows()
    ]
    return oracle, produced


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kinds=key_kinds, batch_size=st.sampled_from(BATCH_SIZES))
def test_hash_join_matches_oracle_in_order(data, kinds, batch_size):
    left = data.draw(key_rows("l", kinds))
    right = data.draw(key_rows("r", kinds))
    oracle, produced = _join_both(kinds, left, right, batch_size)
    assert _exact(produced) == _exact(oracle)


def test_hash_join_keeps_build_insertion_order():
    left = [{"l.id": 0, "l.k0": 2}, {"l.id": 1, "l.k0": 1}]
    right = [{"r.id": i, "r.k0": k} for i, k in enumerate([1, 2, 1, 2, 1])]
    oracle, produced = _join_both(["int"], left, right, 7)
    assert [(row["l.id"], row["r.id"]) for row in produced] == [
        (0, 1), (0, 3), (1, 0), (1, 2), (1, 4),
    ]
    assert produced == oracle


# -- GROUP BY -----------------------------------------------------------------


_VALUES = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.floats(-1e6, 1e6, allow_nan=False, width=64),
    st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, -0.0]),
)
_AGGREGATES = [
    ("count", False), ("count", True), ("sum", False), ("avg", False),
    ("min", False), ("max", False), ("sum", True),
]


def _group_node(key_count: int) -> GroupBy:
    aggregates = [Aggregate("count", None, False, "n")] + [
        Aggregate(function, parse_expression("g.v"), distinct,
                  f"{function}{'_d' if distinct else ''}")
        for function, distinct in _AGGREGATES
    ]
    node = GroupBy(
        LEAF, [parse_expression(f"g.k{i}") for i in range(key_count)], aggregates
    )
    node.compiled_keys = [compile_expr(key) for key in node.keys]
    node.compiled_carried = []
    node.compiled_having = None
    node.compiled_aggregate_args = [
        None if spec.argument is None else compile_expr(spec.argument)
        for spec in aggregates
    ]
    return node


class _RowOracle(Executor):
    def __init__(self, rows):
        super().__init__(None, batch_size=0)
        self.leaf_rows = rows

    def _run(self, node):
        return iter(self.leaf_rows) if node == LEAF else super()._run(node)


class _Batched(BatchedInterpreter):
    def __init__(self, batches, batch_size):
        super().__init__(None, batch_size)
        self.leaf_batches = batches

    def run(self, node, quota=None):
        if node == LEAF:
            return iter(self.leaf_batches)
        return super().run(node, quota)


def _oracle_groups(node, rows):
    return list(_RowOracle(rows)._run_group_by(node))


def _grouped(node, batches, batch_size):
    return [
        row
        for batch in _Batched(batches, batch_size)._run_group_by(node)
        for row in batch.to_rows()
    ]


def _reference_folds(node, batches):
    """Per batch, per group (first-seen order), ``update_values`` over
    the group's slice: the fold the float SUM/AVG outputs must equal."""
    groups: Dict[tuple, List[AggregateState]] = {}
    for batch in batches:
        keys = [batch.column(key.qualified) for key in node.keys]
        local: Dict[tuple, List[int]] = {}
        for row, key in enumerate(zip(*keys)):
            local.setdefault(key, []).append(row)
        column = batch.column("g.v")
        for key, rows in local.items():
            for state in groups.setdefault(key, new_states(node.aggregates)):
                if state.spec.argument is None:
                    state.update_count_star(len(rows))
                else:
                    state.update_values([column[i] for i in rows])
    return [
        {state.spec.output_name: state.result() for state in states}
        for states in groups.values()
    ]


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    kinds=key_kinds,
    value_kind=st.sampled_from(["int", "float", "mixed"]),
    batch_size=st.sampled_from(BATCH_SIZES),
)
def test_group_by_matches_oracle_in_order(data, kinds, value_kind, batch_size):
    values = {
        "int": st.one_of(st.none(), st.integers(-5, 5)),
        "float": st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False)),
        "mixed": _VALUES,
    }[value_kind]
    rows = data.draw(key_rows("g", kinds, max_size=60))
    for row in rows:
        row["g.v"] = data.draw(values)
    columns = ["g.id"] + [f"g.k{i}" for i in range(len(kinds))] + ["g.v"]
    node = _group_node(len(kinds))
    batches = _batches(rows, columns, batch_size)
    produced = _grouped(node, batches, batch_size)
    # The oracle adds floats row by row across batches; production adds
    # each batch's per-group subtotal.  Those outputs are held to the
    # per-batch reference instead.
    float_folds = set()
    if any(isinstance(row["g.v"], float) for row in rows):
        float_folds = {"sum", "avg", "sum_d"}

    def without(rows_):
        return [
            {name: value for name, value in row.items() if name not in float_folds}
            for row in rows_
        ]

    assert _exact(without(produced)) == _exact(without(_oracle_groups(node, rows)))
    reference = _reference_folds(node, batches)
    assert len(reference) == len(produced)
    for got, want in zip(produced, reference):
        for name in float_folds:
            assert _exact([{name: got[name]}]) == _exact([{name: want[name]}])


@pytest.mark.parametrize("plain_sum", [True, False])
def test_float_sum_is_the_per_batch_sequential_fold(monkeypatch, plain_sum):
    """0.1 + 0.2 + 0.3 from 0.0 is not the pairwise or compensated sum.
    ``plain_sum=False`` runs the path a Python with compensated ``sum()``
    (3.12+) takes: float SUM/AVG through ``update_values`` per group."""
    monkeypatch.setattr(aggregates, "_PLAIN_FLOAT_SUM", plain_sum)
    values = [0.1, 0.2, 0.3, 1e16, 1.0, -1e16] * 3
    rows = [{"g.k0": i % 2, "g.v": v} for i, v in enumerate(values)]
    node = _group_node(1)
    batches = _batches(rows, ["g.k0", "g.v"], 7)
    produced = _grouped(node, batches, 7)
    reference = _reference_folds(node, batches)
    assert [row["sum"].hex() for row in produced] == [
        row["sum"].hex() for row in reference
    ]


# -- which path runs ------------------------------------------------------------


def test_corpus_joins_and_groups_are_factorised(monkeypatch):
    db = build_tpc_db(scale_factor=0.25)
    sqls = [query.sql for query in generate_corpus(0)]
    kinds = {
        type(node).__name__
        for sql in sqls
        for node in _nodes(db.plan(sql).root)
        if isinstance(node, HashJoin) or (isinstance(node, GroupBy) and node.keys)
    }
    assert kinds == {"HashJoin", "GroupBy"}

    def fallback(columns):
        raise AssertionError(f"{len(columns)} key column(s) took the dict fallback")

    monkeypatch.setattr(vecbatch, "_dict_codes", fallback)
    for sql in sqls:
        db.execute(sql)


def _mixed_db(config: OptimizerConfig) -> SoftDB:
    db = SoftDB(config)
    db.execute("CREATE TABLE a (id INT PRIMARY KEY, x DOUBLE)")
    db.execute("CREATE TABLE b (id INT PRIMARY KEY, n INT)")
    for row in [(1, 1.0), (2, 2.5), (3, None), (4, 1.0), (5, 7.0)]:
        db.database.insert("a", row)
    for row in [(1, 1), (2, 2), (3, None), (4, 7), (5, 1)]:
        db.database.insert("b", row)
    return db


@pytest.fixture
def fallback_calls(monkeypatch):
    calls: List[int] = []
    fallback = vecbatch._dict_codes

    def counted(columns):
        calls.append(len(columns))
        return fallback(columns)

    monkeypatch.setattr(vecbatch, "_dict_codes", counted)
    return calls


def test_mixed_type_keys_take_the_fallback_and_match_the_oracle(fallback_calls):
    """DOUBLE against INT in SQL, then one column mixing ints, strings
    and dates: the fallback runs, and the answer is still the oracle's."""
    production = _mixed_db(OptimizerConfig())
    oracle = _mixed_db(OptimizerConfig(batch_size=0, compile_expressions=False))
    for sql in (
        "SELECT a.id, b.id FROM a, b WHERE a.x = b.n",
        "SELECT a.x, count(*) AS n, sum(a.id) AS s FROM a GROUP BY a.x",
    ):
        fallback_calls.clear()
        assert production.execute(sql).tuples() == oracle.execute(sql).tuples()
        assert fallback_calls, sql
    keys = [1, "a", None, datetime.date(2020, 1, 1), "a", 1]
    left = [{"l.id": i, "l.k0": k} for i, k in enumerate(keys)]
    right = [{"r.id": i, "r.k0": k} for i, k in enumerate(reversed(keys))]
    fallback_calls.clear()
    oracle_rows, produced = _join_both(["unsortable"], left, right, 7)
    assert fallback_calls
    assert _exact(produced) == _exact(oracle_rows)
    fallback_calls.clear()
    node = _group_node(1)
    rows = [{"g.k0": k, "g.v": i} for i, k in enumerate(keys)]
    batches = _batches(rows, ["g.k0", "g.v"], 7)
    assert _exact(_grouped(node, batches, 7)) == _exact(_oracle_groups(node, rows))
    assert fallback_calls


def _nodes(node):
    yield node
    for child in node.children():
        yield from _nodes(child)

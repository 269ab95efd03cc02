"""Regression: a NaN join key never matches, in either hash join.

Both hash joins keyed a dict on the raw value tuple.  A tuple compares
equal when its members are the same object, so a stored NaN matched
*the same NaN object* and nothing else: ``a.x = b.y`` paired row 1 with
row 1 and not with row 2, although both hold NaN.  SQL ``=`` is never
true for NaN (the interpreter, the kernels and nested loops all say so),
and an answer that depends on object identity can change once recovery
re-reads the rows.  Every query here runs on the production executor
and on the row-at-a-time oracle.
"""

import pytest

from repro import SoftDB
from repro.optimizer.planner import OptimizerConfig

CONFIGS = {
    "production": OptimizerConfig(),
    "oracle": OptimizerConfig(batch_size=0, compile_expressions=False),
}


def _db(config: OptimizerConfig) -> SoftDB:
    db = SoftDB(config)
    db.execute("CREATE TABLE a (id INT PRIMARY KEY, x DOUBLE)")
    db.execute("CREATE TABLE b (id INT PRIMARY KEY, y DOUBLE)")
    nan = float("nan")
    db.database.insert("a", (1, nan))
    db.database.insert("b", (1, nan))
    db.database.insert("b", (2, float("nan")))
    db.database.insert("a", (3, 1.5))
    db.database.insert("b", (3, 1.5))
    return db


def _uses_hash_join(db: SoftDB, sql: str) -> bool:
    return "HashJoin" in db.explain(sql)


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_nan_keys_do_not_join(mode):
    db = _db(CONFIGS[mode])
    sql = "SELECT a.id, b.id FROM a, b WHERE a.x = b.y"
    assert _uses_hash_join(db, sql)
    assert db.execute(sql).tuples() == [(3, 3)]
    # The same rule the interpreter applies to a row compared with itself.
    assert db.execute("SELECT a.id FROM a WHERE a.x = a.x").tuples() == [(3,)]


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_nan_self_join(mode):
    db = _db(CONFIGS[mode])
    sql = "SELECT b1.id, b2.id FROM b b1, b b2 WHERE b1.y = b2.y"
    assert _uses_hash_join(db, sql)
    assert db.execute(sql).tuples() == [(3, 3)]


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_nan_join_count(mode):
    db = _db(CONFIGS[mode])
    sql = "SELECT count(*) AS n FROM a, b WHERE a.x = b.y"
    assert _uses_hash_join(db, sql)
    assert db.execute(sql).tuples() == [(1,)]

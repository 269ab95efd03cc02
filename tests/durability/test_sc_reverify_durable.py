"""Every soft-constraint re-verification reaches the WAL.

Re-verifying a constraint changes its confidence (and, for an async
repair, its lifecycle state).  A re-verification that called
``verify()`` directly would log nothing, so recovery would reinstall the
last snapshot the registry *had* logged: an async-repaired constraint
would come back VIOLATED at confidence 1.0, a re-measured SSC at its
stale confidence.  Both go through ``SoftConstraintRegistry.reverify``.
"""

import pytest

from repro.api import SoftDB
from repro.softcon.base import SCState
from repro.softcon.checksc import CheckSoftConstraint
from repro.softcon.maintenance import AsyncRepairPolicy


def _durable_table(path, rows):
    db = SoftDB.open(path)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT)")
    db.execute(
        "INSERT INTO t VALUES " + ", ".join(f"({n}, {x})" for n, x in rows)
    )
    return db


def _recovered(path, name):
    db = SoftDB.open(path)
    try:
        sc = db.registry.get(name)
        return sc.state, sc.confidence
    finally:
        db.close(checkpoint=False)


def test_async_repair_outcome_survives_recovery(tmp_path):
    db = _durable_table(tmp_path, [(n, n) for n in range(10)])
    policy = AsyncRepairPolicy(0.5)
    sc = CheckSoftConstraint("x_small", "t", "x < 100")
    db.add_soft_constraint(sc, policy=policy, verify_first=True)
    db.execute("INSERT INTO t VALUES (10, 500)")  # violates: overturned
    assert sc.state is SCState.VIOLATED
    assert policy.run_pending(db.registry, db.database) == [
        ("x_small", "demoted")
    ]
    assert sc.state is SCState.ACTIVE
    assert sc.confidence == pytest.approx(10 / 11)
    db.close(checkpoint=False)
    state, confidence = _recovered(tmp_path, "x_small")
    assert state is SCState.ACTIVE
    assert confidence == pytest.approx(10 / 11)


def test_reverified_ssc_confidence_survives_recovery(tmp_path):
    db = _durable_table(tmp_path, [(n, n) for n in range(100)])
    sc = CheckSoftConstraint("x_low", "t", "x < 50", confidence=0.9)
    db.add_soft_constraint(sc)
    assert sc.is_statistical
    assert db.registry.reverify(sc) == (50, 100)
    assert sc.confidence == pytest.approx(0.5)
    db.close(checkpoint=False)
    state, confidence = _recovered(tmp_path, "x_low")
    assert state is SCState.ACTIVE
    assert confidence == pytest.approx(0.5)

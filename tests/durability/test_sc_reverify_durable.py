"""Every soft-constraint re-verification reaches the WAL.

Re-verifying a constraint changes its confidence (and, for an async
repair, its lifecycle state).  Both paths below used to call
``verify()`` directly and log nothing, so recovery reinstalled the last
snapshot the registry *had* logged: an async-repaired constraint came
back VIOLATED at confidence 1.0, a feedback-refreshed SSC at its stale
confidence.  They now go through ``SoftConstraintRegistry.reverify``.
"""

import pytest

from repro.api import SoftDB
from repro.feedback import FeedbackStore
from repro.feedback.adjust import FeedbackAdjuster
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


def test_feedback_refreshed_confidence_survives_recovery(tmp_path):
    db = _durable_table(tmp_path, [(n, n) for n in range(100)])
    sc = CheckSoftConstraint("x_low", "t", "x < 50", confidence=0.9)
    db.add_soft_constraint(sc)
    store = FeedbackStore()
    store.record_scan("t", "x > 30", estimated=1, actual=500)
    actions = FeedbackAdjuster(db.registry, store, db.database).apply()
    assert len(actions) == 1 and actions[0].startswith("ssc x_low")
    assert sc.confidence == pytest.approx(0.5)
    db.close(checkpoint=False)
    state, confidence = _recovered(tmp_path, "x_low")
    assert state is SCState.ACTIVE
    assert confidence == pytest.approx(0.5)

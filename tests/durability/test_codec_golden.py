"""Golden WAL/checkpoint records for every soft-constraint kind and policy.

The codec asks each SC kind and each maintenance policy for its own
record fields.  These literal strings were produced by the per-kind
``isinstance`` ladder that preceded that design, so a record written by
either version decodes under the other: existing WAL and checkpoint
directories keep recovering.  A change here is an on-disk format change.
"""

import json

import pytest

from repro.durability import codec
from repro.softcon import (
    AsyncRepairPolicy,
    CheckSoftConstraint,
    DropPolicy,
    FunctionalDependencySC,
    JoinHolesSC,
    JoinLinearSC,
    LinearCorrelationSC,
    MinMaxSC,
    Rectangle,
    RepairPolicy,
    SCState,
)


def _soft_constraints():
    yield MinMaxSC("mm", "t", "a", -5, 120, 0.97)
    yield CheckSoftConstraint("ck", "t", "a > 0 AND c < 100.5", 0.9)
    yield FunctionalDependencySC("fd", "t", ["a"], ["b", "c"], 1.0)
    yield LinearCorrelationSC("lc", "t", "a", "c", 2.0, -1.0, 0.25, 0.88)
    yield JoinHolesSC(
        "jh", "t", "a", "u", "x", "id", "t_id",
        holes=[Rectangle(0, 10, 5, 25), Rectangle(30, 40, 0, 1.5)],
        confidence=1.0,
    )
    yield JoinLinearSC("jl", "t", "a", "u", "x", "id", "t_id", 1.5, 0.0, 3.0, 0.75)


GOLDEN_SC = {
    "mm": '{"class":"MinMaxSC","column":"a","confidence":0.97,"high":120,"low":-5,"name":"mm","state":"active","table":"t","updates_since_verified":7,"validity_version":4,"values_version":9,"verified_epoch":3,"violation_count":0}',
    "ck": '{"class":"CheckSoftConstraint","condition":"a > 0 AND c < 100.5","confidence":0.9,"name":"ck","state":"violated","table":"t","updates_since_verified":8,"validity_version":4,"values_version":9,"verified_epoch":3,"violation_count":1}',
    "fd": '{"class":"FunctionalDependencySC","confidence":1.0,"dependents":["b","c"],"determinants":["a"],"name":"fd","state":"active","table":"t","updates_since_verified":9,"validity_version":4,"values_version":9,"verified_epoch":3,"violation_count":2}',
    "lc": '{"class":"LinearCorrelationSC","column_a":"a","column_b":"c","confidence":0.88,"epsilon":0.25,"intercept":-1.0,"name":"lc","slope":2.0,"state":"violated","table":"t","updates_since_verified":10,"validity_version":4,"values_version":9,"verified_epoch":3,"violation_count":3}',
    "jh": '{"class":"JoinHolesSC","column_a":"a","column_b":"x","confidence":1.0,"holes":[[0,10,5,25],[30,40,0,1.5]],"join_column_one":"id","join_column_two":"t_id","name":"jh","state":"active","table_one":"t","table_two":"u","updates_since_verified":11,"validity_version":4,"values_version":9,"verified_epoch":3,"violation_count":4}',
    "jl": '{"class":"JoinLinearSC","column_a":"a","column_b":"x","confidence":0.75,"epsilon":3.0,"intercept":0.0,"join_column_one":"id","join_column_two":"t_id","name":"jl","slope":1.5,"state":"violated","table_one":"t","table_two":"u","updates_since_verified":12,"validity_version":4,"values_version":9,"verified_epoch":3,"violation_count":5}',
}

GOLDEN_POLICY = {
    "drop": '{"type":"DropPolicy"}',
    "repair": '{"type":"RepairPolicy"}',
    "async": '{"drop_threshold":0.7,"queue":["mm"],"type":"AsyncRepairPolicy"}',
}


@pytest.mark.parametrize(
    "number, sc",
    list(enumerate(_soft_constraints())),
    ids=lambda value: getattr(value, "name", str(value)),
)
def test_soft_constraint_record_is_golden(number, sc):
    sc.state = SCState.ACTIVE if number % 2 == 0 else SCState.VIOLATED
    sc.updates_since_verified = 7 + number
    sc.verified_epoch = 3
    sc.violation_count = number
    sc.validity_version = 4
    sc.values_version = 9
    golden = GOLDEN_SC[sc.name]
    assert codec.canonical_dumps(codec.encode_soft_constraint(sc)) == golden
    restored = codec.decode_soft_constraint(json.loads(golden))
    assert type(restored) is type(sc)
    assert restored.statement_sql() == sc.statement_sql()
    assert codec.canonical_dumps(codec.encode_soft_constraint(restored)) == golden


def _policies():
    queued = AsyncRepairPolicy(drop_threshold=0.7)
    queued.queue.append(MinMaxSC("mm", "t", "a", 0, 1))
    return {"drop": DropPolicy(), "repair": RepairPolicy(), "async": queued}


@pytest.mark.parametrize("name", sorted(GOLDEN_POLICY))
def test_policy_record_is_golden(name):
    policy = _policies()[name]
    golden = GOLDEN_POLICY[name]
    assert codec.canonical_dumps(codec.encode_policy(policy)) == golden
    restored = codec.decode_policy(json.loads(golden))
    assert type(restored) is type(policy)
    # The queue is re-resolved by name at restore time, not by the codec.
    expected = golden.replace('["mm"]', "[]")
    assert codec.canonical_dumps(codec.encode_policy(restored)) == expected

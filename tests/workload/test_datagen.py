"""Seeded generation is pinned: the TPC warehouse's rows do not drift."""

import hashlib

from repro.workload.datagen import DataGenerator
from repro.workload.tpc import build_tpc_db

#: sha256 over every table's ``(rid, row)`` of ``build_tpc_db(0.25, seed=0)``,
#: as the per-call weight loop of ``skewed_category`` produced it.
TPC_SF025_SEED0 = "b3403960b3f60a24a9fb2f1624b90584802f65dcd171efbe7ce270f5bf80f210"


def _table_digest(db) -> str:
    digest = hashlib.sha256()
    for name in sorted(db.database.catalog.table_names()):
        for rid, row in db.database.table(name).scan():
            digest.update(repr((name, tuple(rid), row)).encode())
    return digest.hexdigest()


def test_tpc_rows_are_pinned():
    assert _table_digest(build_tpc_db(0.25, seed=0)) == TPC_SF025_SEED0


def _loop_category(generator: DataGenerator, categories: int, skew: float) -> int:
    """The weight loop ``skewed_category`` replaced, one draw per call."""
    weights = [1.0 / ((rank + 1) ** skew) for rank in range(categories)]
    pick = generator.random.uniform(0, sum(weights))
    acc = 0.0
    for category, weight in enumerate(weights):
        acc += weight
        if pick <= acc:
            return category
    return categories - 1


def test_skewed_category_matches_the_weight_loop():
    for categories, skew in ((1, 1.2), (2, 1.2), (7, 0.5), (300, 1.2), (50, 2.0)):
        cached, looped = DataGenerator(3), DataGenerator(3)
        assert [cached.skewed_category(categories, skew) for _ in range(2000)] == [
            _loop_category(looped, categories, skew) for _ in range(2000)
        ]

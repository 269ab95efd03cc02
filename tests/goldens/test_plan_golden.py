"""Plans do not move unless a change means them to.

Each corpus query's plan under the default and the all-off configuration
must match its literal record in ``plan_records.py``: EXPLAIN text,
rewrites, soft-constraint dependencies, root estimate, pages read and
result checksum.  See :mod:`tests.goldens.plan_golden` to regenerate.
"""

import pytest

from tests.goldens import plan_golden
from tests.goldens.plan_records import RECORDS

CASES = list(plan_golden.cases())


@pytest.fixture(scope="module")
def db():
    return plan_golden.build_db()


@pytest.fixture(scope="module")
def optimizers(db):
    return plan_golden.optimizers(db)


def test_every_record_has_a_case():
    assert sorted(RECORDS) == sorted(key for key, _, _ in CASES)


@pytest.mark.parametrize(
    "key, query, config", CASES, ids=[key for key, _, _ in CASES]
)
def test_plan_matches_golden(key, query, config, db, optimizers):
    assert plan_golden.record(db, optimizers[config], query.sql) == RECORDS[key]

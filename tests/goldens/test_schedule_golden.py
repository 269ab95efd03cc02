"""Fault and crash schedules do not move unless a change means them to.

The crash census, the concurrent crash census and the chaos fault counts
must match their literal records in ``schedule_records.py``.  See
:mod:`tests.goldens.schedule_golden` to regenerate.
"""

import pytest

from tests.chaos import test_chaos_differential as chaos
from tests.crash import test_crash_concurrent as concurrent
from tests.crash import test_crash_differential as crash
from tests.goldens import schedule_golden
from tests.goldens.schedule_records import RECORDS


@pytest.mark.parametrize("seed", crash.SEEDS)
def test_crash_census_matches_golden(seed):
    assert schedule_golden.crash_census(seed) == RECORDS["crash_census"][seed]


@pytest.mark.parametrize("seed", concurrent.SEEDS)
def test_concurrent_census_matches_golden(seed):
    assert (
        schedule_golden.concurrent_census(seed)
        == RECORDS["concurrent_census"][seed]
    )


@pytest.mark.parametrize("batch_size", chaos.BATCH_SIZES)
@pytest.mark.parametrize("seed", chaos.SEEDS)
def test_chaos_counts_match_golden(seed, batch_size):
    assert (
        schedule_golden.chaos_counts(seed, batch_size)
        == RECORDS["chaos"][f"{seed}/{batch_size}"]
    )

"""A durable write stream's exact counts do not move unless a change means
them to.

WAL bytes and flushes, page reads and writes, SC violations and repairs
and the bytes shipped to a replica must match the literal record in
``count_records.py``.  See :mod:`tests.goldens.count_golden` to
regenerate.
"""

from tests.goldens import count_golden
from tests.goldens.count_records import RECORD


def test_write_stream_counts_match_golden():
    assert count_golden.record() == RECORD

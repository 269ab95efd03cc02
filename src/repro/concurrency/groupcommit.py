"""WAL group commit: N concurrently-committing transactions, one flush.

The durability manager appends each transaction's commit record under
its mutex and hands the resulting WAL sequence number (records appended
so far) to :meth:`GroupCommitter.commit`.  The first committer to arrive
becomes the *leader*: it sleeps a short gather window — during which
other committing threads append their own commit records and queue up as
*followers* — then flushes the log once and publishes the flushed
sequence.  Every follower whose commit record landed at or before the
flushed sequence returns without touching the disk; at most one thread
is ever inside ``flush()``.

Correctness does not depend on the window: a commit record is only
covered when its append *happened before* the leader read the target
sequence, and a follower that missed the flush simply leads (or joins)
the next round.  The window is a fixed throughput/latency trade,
:data:`DEFAULT_WINDOW`; single-session commits never come here at all
(the manager calls ``wal.flush()`` directly when the committer is
inactive).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

__all__ = ["GroupCommitter"]

#: The gather window in seconds.  Long enough for a burst of
#: committing threads to pile in behind the leader, short enough to be
#: invisible next to any real fsync.
DEFAULT_WINDOW = 0.002


class GroupCommitter:
    """Leader/follower commit flushing for one write-ahead log."""

    def __init__(
        self, wal, is_active: Optional[Callable[[], bool]] = None
    ) -> None:
        self.wal = wal
        # When inactive (e.g. a single open session), the durability
        # manager bypasses the committer entirely — no gather latency.
        self._is_active = is_active
        self._cond = threading.Condition()
        self._flushed_seq = 0
        self._flushing = False
        self.commits = 0
        self.group_flushes = 0
        self.largest_group = 0

    @property
    def active(self) -> bool:
        return self._is_active is None or self._is_active()

    def commit(self, seq: int) -> None:
        """Make the WAL durable at least through sequence ``seq``.

        ``seq`` is ``wal.appended`` observed just after this
        transaction's commit record was appended (under the durability
        mutex), so covering ``seq`` covers the record.
        """
        with self._cond:
            self.commits += 1
            while True:
                if seq <= self._flushed_seq:
                    return
                if not self._flushing:
                    break
                self._cond.wait()
            self._flushing = True
            floor = self._flushed_seq
        target = floor
        try:
            time.sleep(DEFAULT_WINDOW)
            target = self.wal.appended
            self.wal.flush()
        finally:
            with self._cond:
                self._flushing = False
                if target > self._flushed_seq:
                    self._flushed_seq = target
                self.group_flushes += 1
                group = target - floor
                if group > self.largest_group:
                    self.largest_group = group
                self._cond.notify_all()

    def stats(self) -> dict:
        return {
            "commits": self.commits,
            "group_flushes": self.group_flushes,
            "largest_group": self.largest_group,
        }

"""MVCC snapshots and the undo-based version store.

The heap stays authoritative for the *current* image of every row (a
write made while no transaction is open and at most one session is pays
no versioning cost); concurrency adds an overlay that remembers, per
touched RowId, the newest writer's stamp and a chain of before-images.
A snapshot reader reconstructs the image
it should see by walking a row's chain newest-to-oldest until it crosses
the first writer the snapshot considers visible:

* start with ``after`` = the current heap image (possibly None when the
  row is deleted right now);
* for each chain entry ``(writer, before)`` newest first: if ``writer``
  is visible, the reconstruction is ``after``; otherwise the entry's
  change must be undone, so ``after`` becomes ``before``;
* past the oldest entry, every writer was invisible and ``after`` holds
  the pre-history image.

Visibility is PostgreSQL-style snapshot isolation against a transaction
id watermark: a writer is visible when it is the snapshot's owner, or it
began before the snapshot's ``xmax`` watermark, was not in flight at
snapshot time, and did not abort.  Aborted transactions stay invisible
forever — their rollback compensations are recorded under the *same*
stamp, so a chain containing an aborted writer reconstructs to the same
image the restored heap holds, and vacuum can drop it wholesale.

Rollback of an open transaction therefore needs no special handling
here: the undo log puts each old image back at its own rid, the
compensating operations extend that rid's chain under the aborted stamp,
and both roads lead to the same image at the same rid.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.engine.row import RowId
from repro.errors import TransactionError

__all__ = ["Snapshot", "TransactionManager", "VersionStore"]

Image = Optional[Tuple[Any, ...]]


class Snapshot:
    """A frozen view of which transactions' effects are visible.

    ``xmax`` is the next-to-be-assigned transaction id at snapshot time
    (everything at or past it began later); ``in_flight`` are the ids
    that were active; ``owner`` is the reading transaction's own id (its
    own uncommitted writes are always visible to it).
    """

    __slots__ = ("xmax", "in_flight", "owner", "_aborted")

    def __init__(
        self,
        xmax: int,
        in_flight: FrozenSet[int],
        owner: Optional[int],
        aborted: Set[int],
    ) -> None:
        self.xmax = xmax
        self.in_flight = in_flight
        self.owner = owner
        # Shared (growing) abort set from the TransactionManager: an id
        # aborts *after* a snapshot observed it in flight, and must stay
        # invisible to snapshots taken later as well.
        self._aborted = aborted

    def visible(self, writer: Optional[int]) -> bool:
        """Is a change stamped by ``writer`` part of this snapshot?"""
        if writer is None:
            return True
        if writer == self.owner:
            return True
        if writer >= self.xmax:
            return False
        if writer in self.in_flight:
            return False
        if writer in self._aborted:
            return False
        return True

    def horizon(self) -> int:
        """Oldest id whose commit status this snapshot still questions."""
        return min(self.in_flight, default=self.xmax)

    def __repr__(self) -> str:
        return (
            f"Snapshot(xmax={self.xmax}, in_flight={sorted(self.in_flight)}, "
            f"owner={self.owner})"
        )


class TransactionManager:
    """Allocates MVCC transaction ids and tracks their fates.

    The id space is private to the concurrency engine (durability keeps
    its own WAL transaction ids); all that matters for visibility is a
    total begin order, which the single counter provides.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._next_id = 1
        self._active: Set[int] = set()
        self._aborted: Set[int] = set()
        self.begun = 0
        self.committed = 0
        self.aborted_count = 0

    def begin(self) -> int:
        with self._mutex:
            txn_id = self._next_id
            self._next_id += 1
            self._active.add(txn_id)
            self.begun += 1
            return txn_id

    def commit(self, txn_id: int) -> None:
        """Flip a transaction to committed (call *after* its WAL flush:
        the visibility flip is what makes the commit observable)."""
        with self._mutex:
            if txn_id not in self._active:
                raise TransactionError(
                    f"transaction {txn_id} is not active"
                )
            self._active.discard(txn_id)
            self.committed += 1

    def abort(self, txn_id: int) -> None:
        with self._mutex:
            if txn_id not in self._active:
                raise TransactionError(
                    f"transaction {txn_id} is not active"
                )
            self._active.discard(txn_id)
            self._aborted.add(txn_id)
            self.aborted_count += 1

    def snapshot(self, owner: Optional[int] = None) -> Snapshot:
        with self._mutex:
            return Snapshot(
                self._next_id,
                frozenset(self._active),
                owner,
                self._aborted,
            )

    def is_active(self, txn_id: int) -> bool:
        with self._mutex:
            return txn_id in self._active

    def is_aborted(self, txn_id: int) -> bool:
        with self._mutex:
            return txn_id in self._aborted

    @property
    def active_count(self) -> int:
        return len(self._active)

    def prune_aborted(self, horizon: int) -> None:
        """Forget aborted ids below ``horizon`` (their chains are gone;
        the restored heap image is what any snapshot reconstructs)."""
        with self._mutex:
            self._aborted = {a for a in self._aborted if a >= horizon}


class _TableVersions:
    """Per-table overlay: newest stamp and before-image chain per rid."""

    __slots__ = ("stamps", "chains", "by_page")

    def __init__(self) -> None:
        self.stamps: Dict[RowId, int] = {}
        # Chronological (oldest..newest) list of (writer, before_image).
        self.chains: Dict[RowId, List[Tuple[int, Image]]] = {}
        self.by_page: Dict[int, Set[int]] = {}

    def note(self, rid: RowId, writer: int, before: Image) -> None:
        self.stamps[rid] = writer
        self.chains.setdefault(rid, []).append((writer, before))
        self.by_page.setdefault(rid.page_id, set()).add(rid.slot_no)

    def drop(self, rid: RowId) -> None:
        self.stamps.pop(rid, None)
        self.chains.pop(rid, None)
        slots = self.by_page.get(rid.page_id)
        if slots is not None:
            slots.discard(rid.slot_no)
            if not slots:
                del self.by_page[rid.page_id]


class VersionStore:
    """The whole database's MVCC overlay, keyed by table name.

    All mutation happens under the concurrency engine's latch; readers
    take the latch per page (see
    :meth:`~repro.concurrency.engine.ConcurrencyEngine.visible_row_runs`)
    so a reconstruction never races a chain append.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, _TableVersions] = {}
        self.versions_recorded = 0
        self.vacuumed = 0

    def table(self, table_name: str) -> Optional[_TableVersions]:
        return self._tables.get(table_name)

    def note_insert(self, table_name: str, rid: RowId, writer: int) -> None:
        self._entry(table_name).note(rid, writer, None)
        self.versions_recorded += 1

    def note_delete(
        self, table_name: str, rid: RowId, old_row: Tuple[Any, ...],
        writer: int,
    ) -> None:
        self._entry(table_name).note(rid, writer, old_row)
        self.versions_recorded += 1

    def note_update(
        self,
        table_name: str,
        old_rid: RowId,
        new_rid: RowId,
        old_row: Tuple[Any, ...],
        writer: int,
    ) -> None:
        entry = self._entry(table_name)
        if old_rid == new_rid:
            entry.note(old_rid, writer, old_row)
            self.versions_recorded += 1
            return
        # A forwarded update is a delete at the old slot plus an insert
        # at the new one, and versions as exactly that pair.
        entry.note(old_rid, writer, old_row)
        entry.note(new_rid, writer, None)
        self.versions_recorded += 2

    def _entry(self, table_name: str) -> _TableVersions:
        entry = self._tables.get(table_name)
        if entry is None:
            entry = self._tables[table_name] = _TableVersions()
        return entry

    # -- reconstruction -----------------------------------------------------

    def reconstruct(
        self,
        table_name: str,
        rid: RowId,
        heap_image: Image,
        snapshot: Snapshot,
    ) -> Image:
        """The image of ``rid`` as of ``snapshot`` (None = not visible)."""
        entry = self._tables.get(table_name)
        if entry is None:
            return heap_image
        chain = entry.chains.get(rid)
        if chain is None:
            return heap_image
        after = heap_image
        for writer, before in reversed(chain):
            if snapshot.visible(writer):
                return after
            after = before
        return after

    def stamp(self, table_name: str, rid: RowId) -> Optional[int]:
        entry = self._tables.get(table_name)
        if entry is None:
            return None
        return entry.stamps.get(rid)

    # -- vacuum -------------------------------------------------------------

    def vacuum(self, horizon: int, txns: TransactionManager) -> int:
        """Drop chains no active snapshot can ever need again.

        A chain is prunable when its newest writer resolved (committed
        or aborted) below ``horizon`` — every current and future
        snapshot then agrees with the heap image for that rid, because a
        committed writer below the horizon is visible to all of them and
        an aborted one reconstructs to the already-restored heap.
        """
        dropped = 0
        for entry in self._tables.values():
            for rid in list(entry.chains.keys()):
                newest = entry.stamps.get(rid)
                if newest is None:
                    continue
                if newest >= horizon or txns.is_active(newest):
                    continue
                entry.drop(rid)
                dropped += 1
        self.vacuumed += dropped
        txns.prune_aborted(horizon)
        return dropped

    @property
    def live_chains(self) -> int:
        return sum(len(entry.chains) for entry in self._tables.values())

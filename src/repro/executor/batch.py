"""Column-major row batches: the unit of exchange between vectorized operators.

A :class:`RowBatch` holds ``batch_size`` (or fewer) rows as parallel
per-column value sequences keyed by the same names a row-at-a-time
``RowDict`` would use (qualified ``"t.a"`` keys from scans; bare output
names after projection; both forms after GROUP BY).  Operators never
mutate a batch's columns — they build new batches — so columns may be
shared freely between batches (e.g. a join probe output aliases the
build side's columns instead of copying them).  Gathers
(:meth:`RowBatch.take`, :func:`gather`) return tuples, and producers
that *know* they are about to share list columns across batches enforce
the contract mechanically with :meth:`RowBatch.freeze`, which swaps the
lists for tuples so any in-place mutation of an aliased column raises
instead of silently corrupting every batch that shares it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Rows per batch unless the caller asks otherwise.  1024 keeps per-batch
#: Python overhead amortized while staying cache- and memory-friendly.
DEFAULT_BATCH_SIZE = 1024

RowDict = Dict[str, Any]


def gather(
    columns: Sequence[Sequence[Any]], positions: List[int]
) -> List[Tuple[Any, ...]]:
    """Each column's values at ``positions``, as a tuple gathered by one
    ``itemgetter`` (which returns a bare value for a single position)."""
    if len(positions) > 1:
        pick = itemgetter(*positions)
        return [pick(column) for column in columns]
    return [tuple([column[p] for p in positions]) for column in columns]


class RowBatch:
    """A fixed set of rows stored column-major.

    Attributes
    ----------
    columns:
        Column key names in row order (the order ``dict(row)`` would have).
    data:
        ``name -> values`` (a list or a tuple), one per column, all the
        same length.  Two names may alias the same list (GROUP BY emits a
        group key under both its qualified and bare name).
    length:
        Row count; kept explicitly so zero-column batches stay coherent.
    """

    __slots__ = ("columns", "data", "length")

    def __init__(
        self,
        columns: Sequence[str],
        data: Dict[str, List[Any]],
        length: Optional[int] = None,
    ) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        self.data = data
        if length is None:
            length = len(data[self.columns[0]]) if self.columns else 0
        self.length = length

    def __len__(self) -> int:
        return self.length

    # -- construction / conversion -----------------------------------------

    @classmethod
    def from_rows(
        cls, rows: Sequence[RowDict], columns: Optional[Sequence[str]] = None
    ) -> "RowBatch":
        """Transpose row dicts into a batch (column order from the first row)."""
        if columns is None:
            columns = list(rows[0]) if rows else []
        data = {name: [row.get(name) for row in rows] for name in columns}
        return cls(columns, data, len(rows))

    @classmethod
    def from_tuples(
        cls,
        columns: Sequence[str],
        rows: Sequence[Tuple[Any, ...]],
        positions: Sequence[int],
    ) -> "RowBatch":
        """Transpose storage tuples into tuple columns: column *k* holds
        each row's value at ``positions[k]``."""
        transposed = [tuple(map(itemgetter(p), rows)) for p in positions]
        return cls(columns, dict(zip(columns, transposed)), len(rows))

    @classmethod
    def concat(cls, batches: Sequence["RowBatch"]) -> Optional["RowBatch"]:
        """Concatenate same-schema batches; None when there are none."""
        if not batches:
            return None
        if len(batches) == 1:
            return batches[0]
        first = batches[0]
        data: Dict[str, List[Any]] = {}
        for name in first.columns:
            merged: List[Any] = []
            for batch in batches:
                merged.extend(batch.data[name])
            data[name] = merged
        return cls(first.columns, data, sum(len(b) for b in batches))

    def to_rows(self) -> List[RowDict]:
        """Materialize as row dicts (the row-at-a-time representation)."""
        columns = self.columns
        cols = [self.data[name] for name in columns]
        return [
            dict(zip(columns, values)) for values in zip(*cols)
        ] if columns else [{} for _ in range(self.length)]

    def row(self, index: int) -> RowDict:
        """One row as a dict (used for per-group carried columns)."""
        return {name: self.data[name][index] for name in self.columns}

    def freeze(self) -> "RowBatch":
        """Swap column lists for immutable tuples, in place.

        Joins alias build/inner-side columns into many output batches;
        freezing turns a would-be silent corruption (in-place ``append``
        / ``__setitem__`` on a shared column) into an immediate
        ``TypeError``.  Tuples support everything readers use — indexing,
        iteration, slicing, ``* k`` tiling — so frozen batches flow
        through every operator unchanged.  Returns ``self``.
        """
        data = self.data
        for name, column in data.items():
            if type(column) is list:
                data[name] = tuple(column)
        return self

    # -- selection ----------------------------------------------------------

    def take(self, indices: List[int]) -> "RowBatch":
        """Gather the given row positions into a new batch of tuple
        columns (no operator writes to a column it did not build)."""
        columns = self.columns
        gathered = gather([self.data[name] for name in columns], indices)
        return RowBatch(columns, dict(zip(columns, gathered)), len(indices))

    def filter_true(self, mask: Sequence[Any]) -> "RowBatch":
        """Keep rows whose mask entry is exactly True (SQL WHERE semantics:
        False and UNKNOWN/None both drop the row)."""
        keep = [i for i, flag in enumerate(mask) if flag is True]
        if len(keep) == self.length:
            return self
        return self.take(keep)

    def slice(self, start: int, stop: int) -> "RowBatch":
        """Contiguous row range as a new batch."""
        data = {name: self.data[name][start:stop] for name in self.columns}
        return RowBatch(self.columns, data, max(0, min(stop, self.length) - start))

    # -- rebatching ----------------------------------------------------------

    def split(self, batch_size: int) -> Iterable["RowBatch"]:
        """Yield the rows re-chunked to at most ``batch_size`` each."""
        if self.length <= batch_size:
            if self.length:
                yield self
            return
        for start in range(0, self.length, batch_size):
            yield self.slice(start, start + batch_size)

    def __repr__(self) -> str:
        return f"RowBatch(rows={self.length}, columns={list(self.columns)})"

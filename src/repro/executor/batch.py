"""Column-major row batches: the one unit of exchange between operators
and the kernels that evaluate their expressions.

A :class:`RowBatch` holds ``batch_size`` (or fewer) rows under the names
a row-at-a-time ``RowDict`` would use (qualified ``"t.a"`` keys from
scans; bare output names after projection; both forms after GROUP BY).
Its columns have one of three backings:

* built by an operator: ``data`` maps every name to its values;
* storage row tuples (a one-shot scan chunk), read by ``positions``;
* one table-image chunk (:class:`~repro.executor.vecbatch.ColumnImage`),
  read by ``positions`` through the image's cached columns.

:meth:`RowBatch.column` transposes a backed column on first use, and
:meth:`RowBatch.vec` promotes a column to a numpy
:class:`~repro.executor.vecbatch.Vec` once (for an image-backed batch,
the image's own cached Vec), so a kernel over two of ten columns never
transposes the other eight.  Selecting from row tuples keeps the picked
tuples as the backing, so columns only the output touches are
transposed solely for survivors (late materialization); selecting from
an image gathers from its column tuples, which later statements reuse.

Operators never mutate a batch's columns — they build new batches — so
columns may be shared freely between batches (e.g. a join probe output
aliases the build side's columns instead of copying them).  Gathers
(:meth:`RowBatch.take`, :func:`gather`) return tuples, and producers
that *know* they are about to share list columns across batches enforce
the contract mechanically with :meth:`RowBatch.freeze`, which swaps the
lists for tuples so any in-place mutation of an aliased column raises
instead of silently corrupting every batch that shares it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.executor.vecbatch import ColumnImage, Vec, promote

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
        ``name -> values`` (a list or a tuple), all the same length: every
        column of a built batch, the columns read so far of a backed one.
        Two names may alias the same list (GROUP BY emits a group key
        under both its qualified and bare name).
    length:
        Row count; kept explicitly so zero-column batches stay coherent.
    """

    __slots__ = ("columns", "data", "length", "_rows", "_image", "_positions", "_vecs")

    def __init__(
        self,
        columns: Sequence[str],
        data: Dict[str, Sequence[Any]],
        length: Optional[int] = None,
        rows: Optional[Sequence[Tuple[Any, ...]]] = None,
        image: Optional[ColumnImage] = None,
        positions: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        self.data = data
        if length is None:
            length = len(data[self.columns[0]]) if self.columns else 0
        self.length = length
        self._rows = rows
        self._image = image
        self._positions = positions
        self._vecs: Dict[str, Vec] = {}

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
        positions: Tuple[int, ...],
        rows: Sequence[Tuple[Any, ...]],
    ) -> "RowBatch":
        """Storage tuples, unread: column *k* is each row's value at
        ``positions[k]``, transposed when first used."""
        return cls(columns, {}, len(rows), rows=rows, positions=positions)

    @classmethod
    def from_image(
        cls, columns: Sequence[str], positions: Tuple[int, ...], image: ColumnImage
    ) -> "RowBatch":
        """A table-image chunk under one scan's column names; columns and
        Vecs come from (and are cached in) the image."""
        return cls(columns, {}, len(image), image=image, positions=positions)

    @classmethod
    def concat(cls, batches: Sequence["RowBatch"]) -> Optional["RowBatch"]:
        """Concatenate same-schema batches; None when there are none."""
        if not batches:
            return None
        if len(batches) == 1:
            return batches[0]
        first = batches[0]
        data: Dict[str, Sequence[Any]] = {}
        for name in first.columns:
            merged: List[Any] = []
            for batch in batches:
                merged.extend(batch.column(name))
            data[name] = merged
        return cls(first.columns, data, sum(len(b) for b in batches))

    def column(self, name: str) -> Sequence[Any]:
        """The named column's values, read out of the backing on first
        use."""
        column = self.data.get(name)
        if column is None:
            position = self._position(name)
            if self._image is not None:
                column = self._image.column(position)
            else:
                column = tuple(map(itemgetter(position), self._rows))
            self.data[name] = column
        return column

    def vec(self, name: str) -> Vec:
        """The named column as a :class:`Vec`, promoted once."""
        vector = self._vecs.get(name)
        if vector is None:
            if self._image is not None:
                vector = self._image.vec(self._position(name))
            else:
                vector = promote(self.column(name))
            self._vecs[name] = vector
        return vector

    def _position(self, name: str) -> int:
        """The named column's place in a backing storage row."""
        if self._positions is None or name not in self.columns:
            raise ExecutionError(f"the batch has no column {name!r}")
        return self._positions[self.columns.index(name)]

    def to_rows(self) -> List[RowDict]:
        """Materialize as row dicts (the row-at-a-time representation)."""
        columns = self.columns
        if not columns:
            return [{} for _ in range(self.length)]
        values = zip(*map(self.column, columns))
        return [dict(zip(columns, row)) for row in values]

    def row(self, index: int) -> RowDict:
        """One row as a dict (used for per-group carried columns)."""
        return {name: self.column(name)[index] for name in self.columns}

    def freeze(self) -> "RowBatch":
        """Swap column lists for immutable tuples, in place.

        Joins alias build/inner-side columns into many output batches;
        freezing turns a would-be silent corruption (in-place ``append``
        / ``__setitem__`` on a shared column) into an immediate
        ``TypeError``.  Tuples support everything readers use — indexing,
        iteration, slicing, ``* k`` tiling — so frozen batches flow
        through every operator unchanged.  Columns read from a backing
        are tuples already.  Returns ``self``.
        """
        data = self.data
        for name, column in data.items():
            if type(column) is list:
                data[name] = tuple(column)
        return self

    # -- selection ----------------------------------------------------------

    def take(self, indices: List[int]) -> "RowBatch":
        """Gather the given row positions into a new batch: the picked
        storage tuples of a tuple-backed batch, else tuple columns (no
        operator writes to a column it did not build)."""
        if self._rows is not None:
            rows = gather([self._rows], indices)[0]
            return RowBatch.from_tuples(self.columns, self._positions, rows)
        columns = self.columns
        gathered = gather([self.column(name) for name in columns], indices)
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
        if self._rows is not None:
            return RowBatch.from_tuples(
                self.columns, self._positions, self._rows[start:stop]
            )
        data = {name: self.column(name)[start:stop] for name in self.columns}
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

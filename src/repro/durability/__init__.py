"""Durability: write-ahead logging, checkpoints, and crash recovery.

The engine is an in-memory storage simulation; this package gives it the
durability contract of a real one.  Every committed mutation is first
described by a *physiological* redo record — logical row content plus
the physical :class:`~repro.engine.row.RowId` it landed at — in a
CRC-framed write-ahead log.  A fuzzy checkpoint snapshots heap pages,
B-tree indexes, the system catalog, the soft-constraint registry
(including exception-AST bindings and confidence/currency state);
recovery replays the log's committed suffix from the last
checkpoint, verifies per-page checksums, rebuilds or quarantines indexes
that fail verification, and re-validates recovered ASCs against the
recovered data so an overturned soft constraint can never outlive a
crash.

Layout:

* :mod:`~repro.durability.codec` — deterministic JSON codecs + CRCs for
  every persisted structure;
* :mod:`~repro.durability.wal` — the log itself (append, scan,
  torn-tail handling);
* :mod:`~repro.durability.checkpoint` — atomic checkpoint write/load;
* :mod:`~repro.durability.redo` — the one log-order redo path, fed by
  recovery and by a replica's stream;
* :mod:`~repro.durability.manager` — the :class:`DurabilityManager`
  gluing logging hooks, checkpointing, and recovery together.
"""

from repro.durability.manager import DurabilityManager
from repro.durability.wal import WriteAheadLog

__all__ = ["DurabilityManager", "WriteAheadLog"]

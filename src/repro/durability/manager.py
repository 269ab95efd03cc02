"""The durability manager: logging hooks, checkpoints, and recovery.

One :class:`DurabilityManager` owns a database directory (WAL +
checkpoint image) and is attached to a :class:`~repro.engine.database.
Database` (plus, through the :class:`~repro.api.SoftDB` facade, the
soft-constraint registry).  Three roles:

**Logging.**  The engine's DML/DDL paths call the ``log_*`` hooks after
each mutation; the registry snapshots a soft constraint's full state on
every lifecycle/statement change.  Records are *physiological*: logical
row content plus the physical RowId it landed at, so redo replay forces
rows back to their original slots.  Consecutive row changes with the
same op/table/transaction are coalesced into one *run* record (an
``insert_many`` batch is a single framed line).  Statement boundaries
group records into implicit transactions — a record without a matching
commit record is invisible to recovery, which is what makes a crash
mid-statement leave zero trace.

**Checkpoints.**  :meth:`checkpoint` serializes the entire database
(pages, indexes, catalog, SC registry with policies/currency/exception-
AST bindings) into one CRC-guarded image installed by
atomic rename, recording the WAL offset it is consistent with.  Rows,
keys and row ids are encoded once and remembered (:attr:`memo`), so an
image costs what changed since the last.  A plain checkpoint leaves the
WAL alone — replay is offset-based — so a checkpoint that is later lost
still leaves full redo history; ``compact=True`` truncates it.

**Recovery.**  :meth:`recover` restores the last checkpoint (if any),
feeds the WAL from its offset to the redo stream
(:mod:`repro.durability.redo`: resolved records apply in log order),
truncates a torn tail, then runs an integrity pass: per-page checksum
verification, index-versus-heap cross-checks (mismatching indexes are
rebuilt, or quarantined when the rebuild fails), and re-validation of every
recovered ACTIVE absolute soft constraint against the recovered data —
violations route through the constraint's
:class:`~repro.softcon.maintenance.MaintenancePolicy`, so an overturned
ASC can never outlive a crash.
"""

from __future__ import annotations

import threading
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.durability import codec
from repro.durability.checkpoint import load_checkpoint, write_checkpoint
from repro.durability.redo import RedoStream, rebind_exception_table
from repro.durability.wal import WriteAheadLog
from repro.engine.table import HeapTable
from repro.errors import (
    ReadOnlyReplicaError,
    RecoveryError,
    ReproError,
    TransactionError,
)
from repro.resilience.faults import FaultInjector, crash_if_due
from repro.softcon.base import SCState

WAL_NAME = "wal.log"
CHECKPOINT_NAME = "checkpoint.img"

#: Bound on repair rounds per constraint during post-recovery
#: re-validation; a constraint still violated after this many policy
#: applications is overturned outright.
MAX_REPAIR_ROUNDS = 1000

__all__ = ["DurabilityManager", "WAL_NAME", "CHECKPOINT_NAME"]


class DurabilityManager:
    """WAL + checkpoint + recovery for one database directory."""

    def __init__(
        self,
        path: Any,
        crash_points: Optional[FaultInjector] = None,
    ) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.crash_points = crash_points
        self.checkpoint_path = self.path / CHECKPOINT_NAME
        self.wal = WriteAheadLog(self.path / WAL_NAME, crash_points)
        self.database = None
        self.registry = None
        # Extra facade-level sequences persisted through checkpoints.
        self.session_state: Dict[str, Any] = {}
        # Transaction contexts.  Single-session work uses the default
        # stack; each Session installs its own stack around statement
        # execution (see txn_context), so concurrent sessions tag WAL
        # records with their own transaction without sharing nesting
        # state.  The mutex serializes every append-side mutation.
        self._mutex = threading.RLock()
        self._tls = threading.local()
        self._default_stack: List[int] = []
        self._open_txns: Set[int] = set()
        self._txn_dirty: Set[int] = set()
        # Installed by the concurrency engine; None = flush per commit.
        self.group_commit = None
        # Failover fencing (see repro.replication.failover): the cluster
        # fence is the shared epoch authority, promotion_epoch is the
        # epoch THIS node last held.  A node whose epoch lags the fence
        # is deposed: every transaction begin and every commit re-checks,
        # so a woken-up old primary cannot write — split-brain safety.
        self.fence = None
        self.promotion_epoch = 0
        self._table_json: Dict[str, str] = {}
        # Pending row run: consecutive same-op/table/txn row hooks are
        # buffered and flushed as ONE framed record (see _flush_run).
        self._run: Optional[list] = None
        self._txn_counter = 0
        # Redo of logged records (recovery, and a replica's stream).
        self.redo = RedoStream()
        self.records_logged = 0
        self.checkpoints_taken = 0
        # The last checkpoint sequence this directory used (restored by
        # recovery), and the canonical text of what images encode.
        self.sequence = 0
        self.memo = codec.TextMemo()
        self.last_recovery: Optional[Dict[str, Any]] = None

    def attach(self, database, registry=None) -> None:
        """Wire this manager into an engine stack (sets the hooks up)."""
        self.database = database
        self.registry = registry
        self.redo.database = database
        self.redo.registry = registry
        database.durability = self

    def has_persisted_state(self) -> bool:
        return self.checkpoint_path.exists() or self.wal.offset() > 0

    @property
    def mirror(self) -> bool:
        """True for a replica's mirror (its image carries the replication
        base): recovery leaves redo holding, and only promotion makes
        the directory writable."""
        return "replication_base" in self.session_state

    def refuse_mirror(self) -> None:
        """Raise :class:`~repro.errors.ReadOnlyReplicaError` on a mirror.
        Checked before any SQL write runs, and by the transaction and
        record logging hooks for writes from outside SQL."""
        if self.mirror:
            raise ReadOnlyReplicaError(
                f"{self.path} is a replica's mirror of a primary's log; "
                f"a local write would fork it (promote the replica first)"
            )

    def close(self) -> None:
        with self._mutex:
            self._flush_run()
            self.wal.close()

    # -- transactions -------------------------------------------------------

    @property
    def _txn_stack(self) -> List[int]:
        """This thread's transaction stack (a session's, or the default)."""
        stack = getattr(self._tls, "stack", None)
        return self._default_stack if stack is None else stack

    @contextmanager
    def txn_context(self, stack: List[int]):
        """Route this thread's transaction nesting through ``stack``.

        Sessions own one stack apiece and install it around each
        statement, so a session's open transaction follows the session —
        not the thread — even when its statements run on a pool.
        """
        previous = getattr(self._tls, "stack", None)
        self._tls.stack = stack
        try:
            yield
        finally:
            self._tls.stack = previous

    def check_fence(self) -> None:
        """Reject this node's write if the cluster has moved past it.

        Checked at every transaction begin (before the engine mutates
        anything) and again at every commit (an explicit transaction may
        straddle a promotion): a deposed primary raises
        :class:`~repro.errors.FencedError` instead of durably committing
        a second history.  Nodes outside a failover cluster carry no
        fence and pay nothing here.
        """
        fence = self.fence
        if fence is not None:
            fence.check(self.promotion_epoch, node=str(self.path))

    def _begin(self) -> int:
        self.check_fence()
        self.refuse_mirror()
        with self._mutex:
            self._txn_counter += 1
            txn_id = self._txn_counter
            self._open_txns.add(txn_id)
        self._txn_stack.append(txn_id)
        return txn_id

    def _finish(self, txn_id: int, op: str) -> None:
        if op == "commit":
            self.check_fence()
        committer = None
        seq = 0
        with self._mutex:
            stack = self._txn_stack
            if stack and stack[-1] == txn_id:
                stack.pop()
            self._open_txns.discard(txn_id)
            # Only a transaction that tagged records of its own writes a
            # commit/abort.  A statement scope around a nested transaction
            # (multi-row DML runs one Transaction per statement) must not
            # add a second commit record: the statement needs exactly one
            # durability point, or a crash between the two leaves replay
            # honouring the first while the client saw the statement fail.
            if txn_id not in self._txn_dirty:
                return
            self._txn_dirty.discard(txn_id)
            # The commit/abort record is the durability point: flush.
            # Cluster members stamp their promotion epoch into it — the
            # WAL-visible fencing token the chaos suite audits.
            if self.fence is not None:
                self._append(
                    {"op": op, "txn": txn_id, "epoch": self.promotion_epoch}
                )
            else:
                self._append({"op": op, "txn": txn_id})
            candidate = self.group_commit
            if candidate is not None and candidate.active:
                committer = candidate
                seq = self.wal.appended
        if committer is not None:
            # Group commit: the flush happens outside the mutex so N
            # committing transactions can share the leader's single
            # flush instead of serializing N flushes behind it.
            committer.commit(seq)
        else:
            self.wal.flush()

    def txn_begin(self) -> Optional[int]:
        """Called by :class:`~repro.engine.transactions.Transaction`."""
        if self.redo.replaying:
            return None
        return self._begin()

    def txn_commit(self, txn_id: Optional[int]) -> None:
        if txn_id is not None:
            self._finish(txn_id, "commit")

    def txn_abort(self, txn_id: Optional[int]) -> None:
        if txn_id is not None:
            self._finish(txn_id, "abort")

    @contextmanager
    def statement(self):
        """Implicit per-statement transaction (see Database DML paths).

        Top-level statements get their own WAL transaction so that a
        crash mid-statement (even mid-publish, after the row record was
        appended) leaves no committed trace.  Inside an open explicit
        transaction the scope is a no-op — the outer commit decides.
        """
        if self.redo.replaying or self._txn_stack:
            yield
            return
        txn_id = self._begin()
        try:
            yield
        except BaseException:
            self._finish(txn_id, "abort")
            raise
        else:
            self._finish(txn_id, "commit")

    def current_txn(self) -> Optional[int]:
        return self._txn_stack[-1] if self._txn_stack else None

    # -- logging hooks ------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        with self._mutex:
            if self._run is not None:
                self._flush_run()
            self.wal.append(record)
            self.records_logged += 1

    def _log(self, record: Dict[str, Any]) -> None:
        if self.redo.replaying:
            return
        self.refuse_mirror()
        txn_id = self.current_txn()
        record["txn"] = txn_id
        if txn_id is not None:
            self._txn_dirty.add(txn_id)
        self._append(record)

    # The three row hooks below are the engine's hottest logging calls —
    # one per DML row.  Consecutive rows with the same op, table, and
    # transaction are buffered and flushed as ONE framed *run* record
    # (one C-level JSON encode, one CRC, one write for a whole
    # insert_many batch), which is what keeps WAL-on churn inside its
    # steady-state overhead budget.  Any other append — a different run,
    # a DDL record, the commit itself — flushes the pending run first,
    # so the on-disk record order always equals the logical order and a
    # run can never escape its transaction's commit/abort decision.

    def _buffer(self, op: str, table_name: str, rid_entry, row) -> None:
        if self.redo.replaying:
            return
        with self._mutex:
            stack = self._txn_stack
            txn_id = stack[-1] if stack else None
            if txn_id is not None:
                self._txn_dirty.add(txn_id)
            run = self._run
            if run is not None:
                if run[0] is op and run[1] == table_name and run[2] == txn_id:
                    run[3].append(rid_entry)
                    if row is not None:
                        run[4].append(row)
                    return
                self._flush_run()
            self._run = [
                op,
                table_name,
                txn_id,
                [rid_entry],
                [] if row is None else [row],
            ]

    def _flush_run(self) -> None:
        """Frame and append the pending row run, if any (mutex held).

        A crash mid-append leaves the whole run torn — exactly the
        statement-atomicity a real crash gives, since the run's commit
        record could not have been written yet.
        """
        run = self._run
        if run is None:
            return
        self._run = None
        op, table_name, txn_id, rids, rows = run
        encode = codec.canonical_dumps
        table_json = self._table_json.get(table_name)
        if table_json is None:
            table_json = self._table_json[table_name] = encode(table_name)
        txn_json = "null" if txn_id is None else str(txn_id)
        if op == "delete_run":
            payload_str = (
                '{"op":"delete_run","rids":%s,"table":%s,"txn":%s}'
                % (encode(rids), table_json, txn_json)
            )
        else:
            payload_str = (
                '{"op":"%s","rids":%s,"rows":%s,"table":%s,"txn":%s}'
                % (op, encode(rids), encode(rows), table_json, txn_json)
            )
        payload = payload_str.encode("utf-8")
        self.wal.append_line(b"%08x %s\n" % (zlib.crc32(payload), payload))
        self.records_logged += len(rids)

    def log_insert(self, table_name: str, row_id, row) -> None:
        self._buffer(
            "insert_run", table_name, (row_id.page_id, row_id.slot_no), row
        )

    def log_delete(self, table_name: str, row_id, row) -> None:
        self._buffer(
            "delete_run", table_name, (row_id.page_id, row_id.slot_no), None
        )

    def log_update(self, table_name: str, old_rid, new_rid, new_row) -> None:
        self._buffer(
            "update_run",
            table_name,
            (
                (old_rid.page_id, old_rid.slot_no),
                (new_rid.page_id, new_rid.slot_no),
            ),
            new_row,
        )

    def log_create_table(self, schema) -> None:
        self._log(
            {"op": "create_table", "schema": codec.encode_schema(schema)}
        )

    def log_create_index(self, index) -> None:
        self._log(
            {
                "op": "create_index",
                "name": index.name,
                "table": index.table_name,
                "columns": list(index.column_names),
                "unique": index.unique,
            }
        )

    def log_add_constraint(self, constraint) -> None:
        # The record carries the backing index name: replay must install
        # the constraint via the catalog, *not* Database.add_constraint,
        # which would create a second backing index.
        self._log(
            {
                "op": "add_constraint",
                "constraint": codec.encode_constraint(constraint),
            }
        )

    def log_drop_table(self, table_name: str) -> None:
        self._log({"op": "drop_table", "table": table_name})

    def log_bind_exception_table(
        self, name: str, constraint_name: str, base_table: str
    ) -> None:
        self._log(
            {
                "op": "bind_exception_table",
                "name": name,
                "constraint": constraint_name,
                "base_table": base_table,
            }
        )

    def log_soft_constraint(self, constraint, policy, currency) -> None:
        """Full-state snapshot of one soft constraint (registry hook).

        Snapshotting the whole constraint on every lifecycle/statement
        change keeps replay trivial (install verbatim).  The record is
        tagged with the current transaction, so it replays in log order
        once that transaction commits or rolls back, as the live change
        stayed; it vanishes only with a transaction that never
        resolved.
        """
        self._log(
            {
                "op": "sc_state",
                "sc": codec.encode_soft_constraint(constraint),
                "policy": codec.encode_policy(policy),
                "currency": codec.encode_currency(currency),
            }
        )

    def stamp_promotion(self, epoch: int, fence) -> None:
        """Install this replica as the primary for promotion ``epoch``.

        The ``promote`` record is fed first, which finishes redo and
        ends the mirror.  Then the fence is adopted and the record made
        durable: a crash right after promotion recovers the new epoch,
        and checkpoints and resync images carry it.  Last, the integrity
        pass recovery runs checks the finished state (its summary lands
        in ``last_recovery``); a soft-constraint repair it makes is
        logged as the new primary's first record.
        """
        record = {"op": "promote", "epoch": epoch, "txn": None}
        with self._mutex:
            self._flush_run()
            self.feed(record)
            self.fence = fence
            self.wal.append(record)
            self.wal.flush()
            self._settle(_summary())
            self.wal.flush()

    # -- checkpoints --------------------------------------------------------

    def checkpoint(self, compact: bool = False) -> int:
        """Write a full-state checkpoint; returns its sequence number.

        The image is :meth:`image`'s.  A crash mid-checkpoint leaves the
        previous image installed.

        With ``compact=True`` the WAL is truncated once the image is
        installed and restarted with an epoch record naming this
        checkpoint (see :meth:`WriteAheadLog.reset` for why that makes
        the two-file update crash-safe).  Compaction bumps the log
        generation, so any replication cursor into the old log is
        invalidated and the shipper performs a full resync rather than
        shipping bytes across the discontinuity.
        """
        with self._mutex:
            payload, _generation = self.image()
            write_checkpoint(self.checkpoint_path, payload, self.crash_points)
            self.sequence = payload["sequence"]
            if compact:
                self.wal.reset(self.sequence)
            self.checkpoints_taken += 1
            return self.sequence

    def image(self) -> Tuple[Dict[str, Any], int]:
        """The full-state image a checkpoint writes and a resync
        installs, with the log generation its ``wal_offset`` is in.
        Its tables and indexes are pre-encoded text from :attr:`memo`,
        for :func:`~repro.durability.checkpoint.write_checkpoint`.

        Only at a statement boundary with nothing held for redo: replay
        starts *after* the image, so their work would be lost from it.
        """
        with self._mutex:
            if self._open_txns or self._txn_stack or self.redo.held:
                raise TransactionError(
                    "cannot image the database inside an open transaction "
                    "or while redo holds records behind one"
                )
            self._flush_run()
            return self._build_payload(), self.wal.generation

    def _build_payload(self) -> Dict[str, Any]:
        database = self.database
        catalog = database.catalog
        crash_points = self.crash_points
        if self.promotion_epoch:
            # The image must carry the epoch even when it was recovered
            # from a promote WAL record alone: a compacting checkpoint
            # discards that record, and an image without the epoch would
            # let a deposed primary forget it was ever fenced.
            self.session_state["promotion_epoch"] = self.promotion_epoch
        memo = self.memo
        tables = []
        for table in catalog.tables.values():
            pages = []
            for page in table.pages.pages:
                crash_if_due(crash_points, "page_flush")
                pages.append(memo.page(page))
            entry = {
                "schema": codec.encode_schema(table.schema),
                "pages": pages,
                "row_count": table.row_count,
                "insert_hint": table.pages._insert_hint,
            }
            tables.append(codec.Encoded(codec.image_text(entry)))
        crash_if_due(crash_points, "catalog_serialize")
        summary_tables = []
        for name, definition in catalog.summary_tables().items():
            constraint = getattr(definition, "constraint", None)
            base_table = getattr(definition, "base_table", None)
            if constraint is not None and base_table is not None:
                summary_tables.append(
                    {
                        "name": name,
                        "constraint": constraint.name,
                        "base_table": base_table,
                    }
                )
        indexes = list(catalog.indexes.values())
        payload = {
            "version": 1,
            "sequence": self.sequence + 1,
            "wal_offset": self.wal.offset(),
            "txn_counter": self._txn_counter,
            "auto_index_sequence": database._auto_index_sequence,
            "session": dict(self.session_state),
            "tables": tables,
            "indexes": [memo.index(index) for index in indexes],
            "constraints": [
                codec.encode_constraint(constraint)
                for constraint in catalog.all_constraints()
            ],
            "summary_tables": summary_tables,
            "registry": self._encode_registry(),
        }
        memo.trim(list(catalog.tables.values()), indexes)
        return payload

    def _encode_registry(self) -> Optional[Dict[str, Any]]:
        registry = self.registry
        if registry is None:
            return None
        return {
            "constraints": [
                {
                    "sc": codec.encode_soft_constraint(sc),
                    "policy": codec.encode_policy(
                        registry._policies.get(sc.name)
                    ),
                    "currency": codec.encode_currency(
                        registry._currency.get(sc.name)
                    ),
                }
                for sc in registry._constraints.values()
            ],
            "default_policy": codec.encode_policy(registry._default_policy),
            "probation_uses": dict(registry.probation_uses),
            "counters": registry.instrumentation(),
        }

    # -- recovery -----------------------------------------------------------

    def recover(self) -> Dict[str, Any]:
        """Restore checkpoint + resolved WAL suffix; verify; return a
        summary dict."""
        summary = _summary()
        start_offset = 0
        # A log that *begins* with an epoch record was compacted by the
        # checkpoint it names; the next checkpoint's sequence must pass
        # both that one and the restored image's.
        head = self.wal.head_record()
        epoch = None
        if head is not None and head[0].get("op") == "epoch":
            epoch = head[0]["sequence"]
            self.sequence = max(self.sequence, epoch)
        if self.checkpoint_path.exists():
            payload = load_checkpoint(self.checkpoint_path)
            self._restore(payload, summary)
            start_offset = payload["wal_offset"]
            summary["checkpoint"] = True
            self.sequence = max(self.sequence, payload["sequence"])
            # Compacted by this very image: its recorded offset
            # (measured in the pre-compaction log) is stale, and replay
            # starts just past the marker instead.
            if epoch == payload["sequence"]:
                start_offset = head[1]
        records, end_offset, torn = self.wal.scan(start_offset)
        for record in records:
            self.feed(record)
        if torn:
            self.wal.truncate_to(end_offset)
            summary["torn_tail"] = True
        return self._settle(summary)

    def feed(self, record: Dict[str, Any]) -> None:
        """Redo one record of this node's log: recovery's, or one a
        replica just mirrored.

        A ``promote`` record is this node's own promotion (replicas
        resync past a promotion, never mirror one): redo finishes, the
        directory stops being a mirror and adopts the epoch.
        """
        self.redo.feed(record)
        if record.get("op") == "promote":
            self.session_state.pop("replication_base", None)
            self.promotion_epoch = max(self.promotion_epoch, record["epoch"])

    def _settle(self, summary: Dict[str, Any]) -> Dict[str, Any]:
        """Finish redo unless this is a replica's mirror (which keeps
        what its unresolved transactions hold; see redo.py), then run the
        integrity pass: storage verification and soft-constraint
        re-validation."""
        redo = self.redo
        mirror = self.mirror
        if not mirror:
            redo.finish()
        self._txn_counter = max(self._txn_counter, redo.max_txn)
        summary["replayed"] = redo.replayed
        summary["skipped"] = redo.skipped
        summary["warnings"].extend(redo.warnings)
        self._verify_storage(summary)
        # A mirror's log must stay a byte prefix of its primary's, so it
        # repairs in memory only, its logging hooks silenced as in redo.
        redo.replaying = mirror
        try:
            self._revalidate_soft_constraints(summary)
        finally:
            redo.replaying = False
        self.database.reset_counters()
        self.last_recovery = summary
        return summary

    def _restore(
        self, payload: Dict[str, Any], summary: Dict[str, Any]
    ) -> None:
        database = self.database
        catalog = database.catalog
        for table_state in payload["tables"]:
            schema = codec.decode_schema(table_state["schema"])
            table = HeapTable(schema, database.counters)
            table.pages.replace_pages(
                [
                    codec.decode_page(page_state)
                    for page_state in table_state["pages"]
                ],
                table_state["insert_hint"],
            )
            table._row_count = table_state["row_count"]
            catalog.add_table(table)
        for index_state in payload["indexes"]:
            table = catalog.table(index_state["table"])
            catalog.add_index(
                codec.decode_index(
                    index_state, table.schema, database.counters
                )
            )
        for constraint_state in payload["constraints"]:
            catalog.add_constraint(
                codec.decode_constraint(constraint_state)
            )
        database._auto_index_sequence = payload["auto_index_sequence"]
        self._txn_counter = payload["txn_counter"]
        self.session_state = dict(payload["session"])
        self.promotion_epoch = self.session_state.get("promotion_epoch", 0)
        self._restore_registry(payload.get("registry"), summary)
        for binding in payload["summary_tables"]:
            rebind_exception_table(
                database, self.registry, binding, summary["warnings"]
            )
        # Checkpoints written by older versions also carry a "feedback"
        # key (execution-feedback state); restore must accept and ignore it.

    def _restore_registry(
        self, state: Optional[Dict[str, Any]], summary: Dict[str, Any]
    ) -> None:
        registry = self.registry
        if state is None or registry is None:
            if state is not None:
                summary["warnings"].append(
                    "checkpoint carries a soft-constraint registry but "
                    "this session has none; state ignored"
                )
            return
        queued: List[tuple] = []
        for entry in state["constraints"]:
            sc = codec.decode_soft_constraint(entry["sc"])
            policy = codec.decode_policy(entry["policy"])
            currency = codec.decode_currency(entry["currency"])
            registry.adopt(sc, policy=policy, currency=currency)
            if entry["policy"] and entry["policy"].get("queue"):
                queued.append((policy, entry["policy"]["queue"]))
        # Async repair queues reference constraint objects: resolve the
        # logged names against what was just adopted.
        for policy, names in queued:
            policy.queue = [
                registry._constraints[name]
                for name in names
                if name in registry._constraints
            ]
        default_policy = codec.decode_policy(state["default_policy"])
        if default_policy is not None:
            registry._default_policy = default_policy
        registry.probation_uses.update(state["probation_uses"])
        for counter, value in state["counters"].items():
            setattr(registry, counter, value)

    # -- post-recovery integrity -------------------------------------------

    def _verify_storage(self, summary: Dict[str, Any]) -> None:
        database = self.database
        catalog = database.catalog
        for name in catalog.table_names():
            table = catalog.table(name)
            for page in table.pages.pages:
                try:
                    page.verify()
                except ReproError as error:
                    raise RecoveryError(
                        f"recovered page failed verification in table "
                        f"{name!r}: {error}"
                    ) from error
            live = sum(
                1
                for page in table.pages.pages
                for slot in page.slots
                if slot is not None
            )
            if live != table.row_count:
                raise RecoveryError(
                    f"recovered table {name!r} counts {table.row_count} "
                    f"rows but holds {live}"
                )
        for index in list(catalog.indexes.values()):
            table = catalog.table(index.table_name)
            expected = []
            for row_id, row in table.scan():
                key = index.key_of(row)
                if key is not None:
                    expected.append((key, row_id))
            expected.sort()
            actual = sorted(zip(index._keys, index._rids))
            if expected == actual:
                continue
            try:
                database.rebuild_index(index.name)
                summary["indexes_rebuilt"].append(index.name)
            except ReproError:
                index.quarantined = True
                summary["indexes_quarantined"].append(index.name)

    def _revalidate_soft_constraints(self, summary: Dict[str, Any]) -> None:
        """Recovered ACTIVE ASCs must not contradict recovered data.

        Every violation found is routed through the constraint's
        maintenance policy — the same code path a live violation takes —
        until the constraint is clean, repaired into cleanliness, or no
        longer an absolute rewrite candidate.
        """
        registry = self.registry
        if registry is None:
            return
        for sc in list(registry._constraints.values()):
            if sc.state is not SCState.ACTIVE or not sc.is_absolute:
                continue
            for _round in range(MAX_REPAIR_ROUNDS):
                violating_row = self._find_violation(sc)
                if violating_row is None:
                    break
                registry.violations_seen += 1
                registry.policy_for(sc).on_violation(
                    registry, sc, violating_row
                )
                summary["asc_actions"].append(
                    (sc.name, sc.state.value, round(sc.confidence, 9))
                )
                if sc.state is not SCState.ACTIVE or not sc.is_absolute:
                    break
            else:
                registry.overturn(sc)
                summary["asc_actions"].append(
                    (sc.name, sc.state.value, round(sc.confidence, 9))
                )

    def _find_violation(self, sc) -> Optional[Dict[str, Any]]:
        from repro.engine.database import ChangeEvent

        # Scanning the first constrained table covers every case: for
        # join constraints each violating pair contains a table-one row,
        # and _synchronous_check joins it to the other side.
        table_name = sc.table_names()[0]
        table = self.database.table(table_name)
        for row in table.scan_rows():
            event = ChangeEvent("insert", table_name, None, tuple(row))
            violating = self.registry._synchronous_check(sc, event)
            if violating is not None:
                return violating
        return None

    # -- reporting ----------------------------------------------------------

    def describe(self) -> str:
        """One-line status for EXPLAIN/describe output."""
        recovered = ""
        if self.last_recovery is not None:
            recovered = (
                f", recovered {self.last_recovery['replayed']} records"
                f"{' from checkpoint' if self.last_recovery['checkpoint'] else ''}"
            )
        return (
            f"wal: on ({self.path}, {self.records_logged} records, "
            f"{self.checkpoints_taken} checkpoints{recovered})"
        )

    def __repr__(self) -> str:
        return (
            f"DurabilityManager({self.path}, records={self.records_logged}, "
            f"checkpoints={self.checkpoints_taken})"
        )


def _summary() -> Dict[str, Any]:
    """An empty recovery summary (see :meth:`DurabilityManager.recover`)."""
    return {
        "checkpoint": False,
        "replayed": 0,
        "skipped": 0,
        "torn_tail": False,
        "indexes_rebuilt": [],
        "indexes_quarantined": [],
        "asc_actions": [],
        "warnings": [],
    }

"""Exception hierarchy for the ``repro`` engine.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  The hierarchy mirrors the layers of
the system: storage, SQL front end, catalog, constraints, optimizer, and
executor.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class StorageError(ReproError):
    """A problem in the storage layer (pages, heap tables, indexes)."""


class PageOverflowError(StorageError):
    """A row is too large to fit on a single page."""


class TransientIOError(StorageError):
    """A transient I/O failure (simulated).  Retried with backoff by the
    storage layer; surfaces only after the retry budget is exhausted."""


class PageCorruptionError(StorageError):
    """A page's checksum did not match its contents.

    Raised by :meth:`repro.engine.page.Page.verify` when a read detects
    bit-flip corruption (injected or real).  The storage layer treats the
    buffered copy as torn and re-reads; a persistent mismatch surfaces.
    """

    def __init__(self, message: str, page_id: int = -1) -> None:
        super().__init__(message)
        self.page_id = page_id


class IndexCorruptionError(StorageError):
    """An index's checksum did not match its entries, or the index is
    quarantined awaiting a rebuild from the heap.

    Attributes
    ----------
    index_name:
        The corrupted/quarantined index, when known.  Recover with
        :meth:`repro.engine.database.Database.rebuild_index`.
    """

    def __init__(self, message: str, index_name: str = "") -> None:
        super().__init__(message)
        self.index_name = index_name


class WALCorruptionError(StorageError):
    """A write-ahead-log record or checkpoint image failed its CRC.

    A *torn tail* — a truncated or CRC-mismatched final record, the
    signature of a crash mid-append — is crash-consistent and handled
    silently by recovery; this error marks corruption *before* the tail
    (or in a checkpoint body), which redo cannot repair.
    """


class RecoveryError(StorageError):
    """Crash recovery could not restore a consistent database state.

    Raised when WAL replay fails to re-apply a committed record, or when
    the post-replay integrity pass finds storage that neither matches
    its checksums nor can be rebuilt.
    """


class SchemaError(ReproError):
    """An invalid schema definition (duplicate columns, unknown types...)."""


class TypeMismatchError(SchemaError):
    """A value does not conform to its declared column type."""


class CatalogError(ReproError):
    """A catalog-level problem (duplicate table, unknown object...)."""


class DuplicateObjectError(CatalogError):
    """An object with the given name already exists in the catalog."""


class UnknownObjectError(CatalogError):
    """The named table / index / constraint does not exist."""


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class LexError(SqlError):
    """The SQL text could not be tokenized."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class ParseError(SqlError):
    """The token stream does not form a valid statement."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class BindError(SqlError):
    """A name in the query could not be resolved against the catalog."""


class ExpressionError(ReproError):
    """An expression could not be evaluated (bad operand types, etc.)."""


class ConstraintError(ReproError):
    """Base class for integrity-constraint problems."""


class ConstraintViolation(ConstraintError):
    """A *hard* integrity constraint was violated; the statement is rejected.

    Attributes
    ----------
    constraint_name:
        Name of the violated constraint, when known.
    """

    def __init__(self, message: str, constraint_name: str = "") -> None:
        super().__init__(message)
        self.constraint_name = constraint_name


class SoftConstraintError(ReproError):
    """Base class for problems specific to the soft-constraint facility."""


class SoftConstraintStateError(SoftConstraintError):
    """An operation is illegal for the soft constraint's lifecycle state."""


class OptimizerError(ReproError):
    """The optimizer could not produce a plan."""


class ExecutionError(ReproError):
    """A runtime failure while executing a physical plan."""


class StalePlanError(ExecutionError):
    """The plan relies on a soft constraint that has changed since compile.

    Models the paper's Section 4.1 conflict: a transaction holding a plan
    that used an ASC runs concurrently with one that overturned it.  The
    holder must re-issue with a freshly compiled plan (as the paper's
    behind-the-scenes re-issue does for deadlocks).
    """

    def __init__(self, message: str, stale_constraints: tuple = ()) -> None:
        super().__init__(message)
        self.stale_constraints = tuple(stale_constraints)


class QueryGuardError(ExecutionError):
    """Base class for resource-governance breaches (see
    :mod:`repro.resilience.guards`).

    Attributes
    ----------
    report:
        The guard's budget-consumption snapshot at trip time (dict), when
        the guard attached one.
    """

    report: dict = {}


class QueryTimeoutError(QueryGuardError):
    """The query's deadline elapsed before it finished."""


class BudgetExceededError(QueryGuardError):
    """A resource budget (rows materialized, page reads, join pairs) was
    exhausted mid-execution.

    Attributes
    ----------
    budget:
        Name of the exhausted budget (``"rows"``, ``"page_reads"``,
        ``"join_pairs"``).
    """

    def __init__(self, message: str, budget: str = "") -> None:
        super().__init__(message)
        self.budget = budget


class QueryCancelledError(QueryGuardError):
    """The query's :class:`~repro.resilience.guards.CancellationToken`
    was cancelled."""


class TransactionError(ReproError):
    """Transaction misuse (commit twice, write outside a transaction...)."""


class DeadlockError(TransactionError):
    """A lock wait would close a cycle in the waits-for graph.

    The requesting transaction is chosen as the victim: the lock manager
    raises before granting, the session layer rolls the victim back and
    releases its locks, and the caller may re-issue the statement — the
    paper's Section 4.1 "behind the scenes" deadlock resolution.

    Attributes
    ----------
    cycle:
        The transaction ids forming the detected cycle, victim first.
    """

    def __init__(self, message: str, cycle: tuple = ()) -> None:
        super().__init__(message)
        self.cycle = tuple(cycle)


class TransactionConflictError(TransactionError):
    """First-updater-wins: the row was changed by a transaction that
    committed after this snapshot was taken.

    Under snapshot isolation a writer that blocked on a row lock must
    re-check the row's newest stamp once granted; finding a committed
    writer its snapshot cannot see means proceeding would silently
    overwrite that update.  The statement aborts instead.
    """


class SessionError(ReproError):
    """Session misuse (statement on a closed session, nested BEGIN...)."""


class RemoteError(SessionError):
    """A server-side error arrived over the wire with a type this client
    cannot map back onto the taxonomy.

    :meth:`repro.concurrency.server.SessionClient._rehydrate` re-raises
    known :class:`ReproError` subclasses as themselves; anything else —
    an unknown name, a non-``ReproError``, a malformed error frame —
    rehydrates to this class so callers always catch ``ReproError``.

    Attributes
    ----------
    remote_type:
        The type name the server reported, verbatim.
    """

    def __init__(self, message: str, remote_type: str = "") -> None:
        super().__init__(message)
        self.remote_type = remote_type


class OverloadedError(SessionError):
    """The server shed this statement: its in-flight cap is full.

    Load shedding is graceful degradation, not failure — the statement
    was rejected *before* execution, so the client may safely retry
    after a backoff (see
    :class:`repro.concurrency.client.FailoverClient`).
    """


class ShutdownError(SessionError):
    """The server is draining for shutdown and rejected the statement.

    Raised instead of a reset socket so clients can distinguish an
    orderly shutdown (fail over to another endpoint) from a crash.
    Statements already in flight when the drain began still complete.
    """


class NetworkError(ReproError):
    """A network-level failure talking to a remote session server:
    connect/statement timeout, reset connection, or unexpected EOF.

    The request outcome is *unknown* — the statement may or may not have
    executed — so only idempotent work should be blindly retried.  The
    client closes the connection, since a response could still arrive
    for a request it has given up on.
    """


class ReplicaUnavailableError(NetworkError):
    """The replica (or its replication link) is down, severed, or closed.

    Raised by the in-process replication link when a partition or kill
    is simulated, and by the failover client when every endpoint in its
    list has been exhausted.
    """


class ReplicationError(ReproError):
    """Base class for WAL-shipping replication problems."""


class ReadOnlyReplicaError(ReplicationError):
    """A write (DML/DDL/transaction control) was routed to a replica.

    Replicas apply the primary's WAL verbatim; any local write would
    fork their state from the primary's committed prefix.  The router
    sends writes to the primary — hitting this error means a caller
    bypassed it.
    """


class FencedError(ReplicationError):
    """A write reached a node whose promotion epoch the cluster has
    moved past — a deposed primary trying to act like one.

    Fencing is what makes automatic failover split-brain-safe: the
    promotion coordinator bumps the cluster's promotion epoch before the
    new primary accepts its first write, and every durability point
    (transaction begin and commit) on a fenced node re-checks its own
    epoch against the cluster's.  A deposed primary that wakes up — or
    never died at all, just lost its lease to an asymmetric partition —
    therefore rejects **every** write with this error instead of
    diverging the cluster into two histories.  The node must rejoin as a
    replica (full resync from the new primary) to serve again.

    Attributes
    ----------
    epoch:
        The stale promotion epoch the write carried.
    cluster_epoch:
        The cluster's current promotion epoch at rejection time.
    """

    def __init__(
        self, message: str, epoch: int = -1, cluster_epoch: int = -1
    ) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.cluster_epoch = cluster_epoch


class PromotionError(ReplicationError):
    """Automatic failover could not produce a writable primary.

    Raised by the promotion coordinator when no reachable, live replica
    exists to elect, when the elected replica fails to finish its redo
    stream (apply its held committed records), or when a
    promotion is requested while the current primary's lease is still
    live (promotion must never race a healthy primary).
    """


class ResyncRequiredError(ReplicationError):
    """The replica's shipping cursor no longer matches the primary's log.

    The signature of checkpoint-truncation (or recovery truncation)
    racing a lagging replica: the cursor points past the primary's
    durable end, or at bytes that no longer decode as a framed record.
    Incremental shipping must stop — continuing would apply a gapped or
    misaligned stream — and the shipper performs a full resync instead.
    """


class RollbackError(StorageError):
    """One or more undo entries failed while rolling a transaction back.

    Every remaining undo entry was still applied; ``failures`` carries
    the underlying exceptions in the order they occurred.
    """

    def __init__(self, message: str, failures: tuple = ()) -> None:
        super().__init__(message)
        self.failures = tuple(failures)

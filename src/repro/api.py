"""The public facade: a complete soft-constraint-aware database session.

:class:`SoftDB` wires together the storage engine, the soft-constraint
registry, the optimizer, the plan cache and the executor, and exposes a
single ``execute(sql)`` entry point plus helpers for statistics, soft
constraints and exception tables.

Quickstart::

    db = SoftDB()
    db.execute("CREATE TABLE t (a INT, b INT)")
    db.execute("INSERT INTO t VALUES (1, 2), (3, 4)")
    db.runstats("t")
    result = db.execute("SELECT a FROM t WHERE b = 2")
    print(result.rows)          # [{'a': 1}]
    print(db.explain("SELECT a FROM t WHERE b = 2"))
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import dml
from repro.engine.constraints import (
    CheckConstraint,
    Constraint,
    ConstraintMode,
    ForeignKeyConstraint,
    PrimaryKeyConstraint,
    UniqueConstraint,
)
from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.types import type_from_name
from repro.errors import (
    ExecutionError,
    QueryCancelledError,
    QueryGuardError,
    SqlError,
    StalePlanError,
    TransactionError,
)
from repro.executor.runtime import ExecutionResult, Executor
from repro.expr.eval import compile_predicate
from repro.optimizer.explain import explain as explain_plan
from repro.optimizer.physical import PhysicalPlan
from repro.optimizer.planner import Optimizer, OptimizerConfig, PlanCache
from repro.softcon.base import SoftConstraint
from repro.softcon.checksc import CheckSoftConstraint
from repro.softcon.exceptions_ast import ExceptionTable
from repro.softcon.maintenance import MaintenancePolicy
from repro.softcon.registry import SoftConstraintRegistry
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.printer import sql_of
from repro.stats.runstats import TableStats, runstats, runstats_virtual


class SoftDB:
    """A self-contained database session with the soft-constraint facility.

    Parameters
    ----------
    config:
        Optimizer feature switches (all rewrites on by default).
    path:
        Optional durability directory.  When given, every statement is
        write-ahead logged there and :meth:`checkpoint` /
        :meth:`SoftDB.open` provide crash recovery; without it the
        session is purely in-memory (the historical behavior).
    crash_points:
        Optional :class:`~repro.resilience.faults.FaultInjector` whose
        ``crash`` specs arm the durability layer's deterministic crash
        sites (testing only).
    """

    def __init__(
        self,
        config: Optional[OptimizerConfig] = None,
        path: Optional[Any] = None,
        crash_points: Optional[Any] = None,
    ) -> None:
        self.database = Database()
        self.registry = SoftConstraintRegistry(self.database)
        self.config = config or OptimizerConfig()
        self.optimizer = Optimizer(self.database, self.registry, self.config)
        from repro.concurrency.session import Session

        # The facade's statement context: a session of its own, which
        # never counts among the open ones (see session()).
        self._session = Session(self, name="facade")
        self._constraint_sequence = 0
        self.durability = None
        if path is not None:
            self._attach_durability(path, crash_points)

    def _planning_pair(self) -> Tuple[PlanCache, Executor]:
        """A fresh plan cache and executor over the shared optimizer and
        registry.  Plans and execution state are the per-client half of
        the stack: every :class:`~repro.concurrency.session.Session`, the
        facade's own included, owns one pair."""
        plan_cache = PlanCache(self.optimizer)
        executor = Executor(
            self.database, self.registry, batch_size=self.config.batch_size
        )
        return plan_cache, executor

    @property
    def plan_cache(self) -> PlanCache:
        """The facade's plan cache (its session's)."""
        return self._session.plan_cache

    @plan_cache.setter
    def plan_cache(self, plan_cache: PlanCache) -> None:
        self._session.plan_cache = plan_cache

    @property
    def executor(self) -> Executor:
        """The facade's executor (its session's)."""
        return self._session.executor

    # ------------------------------------------------------------ durability

    @classmethod
    def open(
        cls,
        path: Any,
        config: Optional[OptimizerConfig] = None,
        crash_points: Optional[Any] = None,
    ) -> "SoftDB":
        """Open (or create) a durable session rooted at ``path``.

        When the directory holds persisted state — a checkpoint image
        and/or a write-ahead log — the session recovers it before
        returning: checkpoint restore, committed-WAL replay, torn-tail
        truncation, storage verification, and re-validation of recovered
        absolute soft constraints against the recovered data.  The
        recovery summary is available as ``db.durability.last_recovery``.
        """
        return cls(config, path=path, crash_points=crash_points)

    def _attach_durability(self, path: Any, crash_points: Optional[Any]) -> None:
        from repro.durability import DurabilityManager

        manager = DurabilityManager(path, crash_points)
        manager.attach(self.database, registry=self.registry)
        self.durability = manager
        if manager.has_persisted_state():
            manager.recover()
            self._constraint_sequence = manager.session_state.get(
                "constraint_sequence", 0
            )

    def checkpoint(self, compact: bool = False) -> int:
        """Write a full-state checkpoint (durable sessions only).

        ``compact=True`` additionally truncates the WAL behind the
        installed image (log compaction) — replay history before the
        checkpoint is discarded and the log restarts a new generation,
        which forces any attached replication shipper into a full
        resync (see :mod:`repro.replication`).
        """
        if self.durability is None:
            raise ExecutionError(
                "this session is in-memory; construct it with a path "
                "(SoftDB.open) to enable durability"
            )
        self.durability.session_state["constraint_sequence"] = (
            self._constraint_sequence
        )
        return self.durability.checkpoint(compact=compact)

    def close(self, checkpoint: bool = True) -> None:
        """Close the session; by default a final checkpoint is taken so
        the next :meth:`open` restores without replaying the whole log."""
        if self._session.in_transaction:
            self.execute("ROLLBACK")
        if self.durability is None:
            return
        if checkpoint:
            self.checkpoint()
        self.durability.close()

    # -------------------------------------------------------------- sessions

    def session(self, name: Optional[str] = None):
        """Open a concurrent session over this database.

        Sessions are the concurrency unit: each holds its own
        transaction state, plan cache, and executor, and may run on any
        thread.  All share the database's
        :class:`~repro.concurrency.engine.ConcurrencyEngine`; the first
        call installs WAL group commit on a durable database.
        """
        from repro.concurrency import Session

        engine = self.database.concurrency
        engine.attach_group_commit(self.durability)
        session = Session(self, name=name)
        engine.sessions.add(session)
        return session

    def serve(self, host: str = "127.0.0.1", port: int = 0):
        """Construct (not start) the asyncio TCP session server."""
        from repro.concurrency.server import SessionServer

        return SessionServer(self, host=host, port=port)

    # ------------------------------------------------------------- execution

    def execute(
        self,
        sql: str,
        guard: Optional[Any] = None,
        cancel: Optional[Any] = None,
    ) -> Optional[Union[ExecutionResult, int]]:
        """Run one SQL statement.

        Returns an :class:`ExecutionResult` for queries, the affected row
        count for DML, and None for DDL.  A query is planned once per shape:
        a later one that differs only in its literals reuses the plan
        from the plan cache (see :class:`PlanCache`).

        ``guard`` (a :class:`~repro.resilience.guards.QueryGuard`) caps
        this statement's resources; ``cancel`` (a
        :class:`~repro.resilience.guards.CancellationToken`) allows the
        issuer to stop it cooperatively.  Both are honored at row/batch
        boundaries on SELECT; for other statements the token is checked
        on entry.  A breach raises the typed error (or, under the guard's
        ``"partial"`` policy, returns a truncated result) and evicts the
        cached plan — a tripped budget is the loudest possible
        mis-planning signal.  A cancellation evicts nothing.
        """
        return self.run_statement(parse_statement(sql), sql, guard, cancel)

    def run_statement(
        self,
        statement: ast.Statement,
        sql: str,
        guard: Optional[Any] = None,
        cancel: Optional[Any] = None,
        context: Optional[Any] = None,
    ) -> Optional[Union[ExecutionResult, int]]:
        """The one statement path: run an already-parsed statement.

        :meth:`execute` parses and calls this; a session, a replica and
        the router call it with the statement they parsed themselves, so
        no statement is parsed twice.  ``sql`` is the text ``statement``
        was parsed from.

        ``context`` is the :class:`~repro.concurrency.session.Session`
        the statement runs in: the facade's own by default, or one from
        :meth:`session`.  Its WAL transaction stack is installed around
        the statement; it provides ``plan_cache`` and ``executor`` (its
        :meth:`_planning_pair`), ``_read_scope()`` (a context manager
        around a query's execution, which pins the snapshot the query
        reads), its transaction (``_begin()``, ``_commit()``,
        ``_rollback()``, and ``_txn``, None when none is open) and
        ``_run_dml(apply, table_name)``, which calls one of the
        :mod:`repro.dml` appliers with the session's ``txn`` and
        ``claim`` and returns the affected-row count.

        The DML failure rule: an autocommit statement is atomic by
        itself; inside an open transaction a failed statement rolls the
        *whole* transaction back before the error propagates — the undo
        log is all-or-nothing, and a half-applied statement must never
        reach ``COMMIT``.
        """
        if cancel is not None and cancel.cancelled:
            raise QueryCancelledError(f"query cancelled: {cancel.reason}")
        handler = _HANDLERS.get(type(statement))
        if handler is None:
            raise SqlError(f"unsupported statement {type(statement).__name__}")
        if context is None:
            context = self._session
        if self.durability is not None and not ast.is_query(statement):
            self.durability.refuse_mirror()
        with context._wal_context():
            return handler(self, statement, context, (sql, guard, cancel))

    def _select(self, statement, context, options) -> ExecutionResult:
        """The one SELECT runner: fetch the plan from the context's plan
        cache, execute it inside the context's read scope (re-issuing once
        if it went stale meanwhile), evicting the plan on a guard trip."""
        sql, guard, cancel = options
        plan_cache = context.plan_cache

        def run(plan: PhysicalPlan) -> ExecutionResult:
            with context._read_scope():
                return context.executor.execute(
                    plan, guard=guard, cancel=cancel
                )

        plan = plan_cache.get_plan(sql, statement)
        try:
            plan, result = _reissuing(
                run, plan, lambda: plan_cache.get_plan(sql, statement)
            )
        except QueryGuardError as error:
            self._note_guard_breach(plan_cache, plan, error)
            raise
        if result.truncated:
            self._note_guard_breach(plan_cache, plan, result.guard_breach)
        return result

    @staticmethod
    def _note_guard_breach(
        plan_cache: PlanCache,
        plan: PhysicalPlan,
        error: Optional[Exception],
    ) -> None:
        """A budget or deadline breach blames the plan: evict it from
        ``plan_cache``, the cache it came from.  A cancellation blames
        nobody and evicts nothing."""
        if not isinstance(error, QueryCancelledError):
            plan_cache.note_guard_breach(plan)

    def query(self, sql: str) -> List[Dict[str, Any]]:
        """Run a SELECT and return its rows."""
        result = self.execute(sql)
        assert isinstance(result, ExecutionResult)
        return result.rows

    def plan(self, sql: str) -> PhysicalPlan:
        """Optimize without executing (the statement as written: its
        literals stay in the plan, as EXPLAIN shows them)."""
        return self.optimizer.optimize(sql)

    def execute_plan(self, plan: PhysicalPlan) -> ExecutionResult:
        """Execute a previously compiled plan, re-issuing if it went stale.

        Models the paper's Section 4.1 resolution for a transaction whose
        ASC-based plan was overturned by a concurrent transaction: "the
        re-issue can be done behind the scenes just as is done in the case
        of deadlock resolution.  So the user who issued [it] sees no
        difference except for more wait time."
        """
        if not plan.sql:
            return self.executor.execute(plan)
        return _reissuing(
            self.executor.execute,
            plan,
            lambda: self.optimizer.optimize(plan.sql),
        )[1]

    def explain(
        self,
        sql: str,
        analyze: bool = False,
        guard: Optional[Any] = None,
    ) -> str:
        """EXPLAIN text for a query.

        With ``analyze=True`` the query is *executed* and every operator
        line additionally shows its actual output row count (and, under
        the batched executor, the number of batches it emitted), plus a
        summary of the pages actually read — the estimate-vs-actual view
        used to validate the cost model.  A ``guard`` adds a ``guard:``
        line reporting consumption against each budget (tip: use the
        ``"partial"`` breach policy so a tripped analyze still prints
        what it consumed instead of raising).
        """
        plan = self.plan(sql)
        if not analyze:
            return explain_plan(plan)
        result = self.executor.execute(plan, instrument=True, guard=guard)
        text = explain_plan(plan)
        summary = (
            f"\nactual: {result.row_count} rows, "
            f"{result.page_reads} pages read, executor={result.executor}"
        )
        if result.truncated:
            summary += " [truncated by guard]"
        if result.guard_report is not None:
            from repro.resilience.guards import format_guard_report

            summary += "\n" + format_guard_report(result.guard_report)
        if self.durability is not None:
            summary += "\n" + self.durability.describe()
        return text + summary

    # ----------------------------------------------------------------- stats

    def runstats(self, table_name: str, **kwargs: Any) -> TableStats:
        """Collect and store statistics for one table."""
        return runstats(self.database, table_name, **kwargs)

    def runstats_all(self, **kwargs: Any) -> None:
        """RUNSTATS over every base table."""
        for table_name in self.database.catalog.table_names():
            runstats(self.database, table_name, **kwargs)

    def runstats_virtual(
        self, table_name: str, virtual_name: str, expression: Any, **kwargs: Any
    ):
        """Collect statistics over a derived expression (paper §5.1's
        *virtual column* mechanism), e.g.
        ``db.runstats_virtual("project", "duration",
        "end_date - start_date")``."""
        return runstats_virtual(
            self.database, table_name, virtual_name, expression, **kwargs
        )

    # ------------------------------------------------------------- resilience

    def attach_fault_injector(self, injector: Any) -> None:
        """Attach a :class:`~repro.resilience.faults.FaultInjector` to the
        session's storage layer (pages and indexes, existing and future)."""
        self.database.attach_fault_injector(injector)

    def rebuild_index(self, name: str) -> None:
        """Rebuild an index from its heap — the recovery path for an index
        quarantined after corruption was detected.

        The rebuild changes the table's physical access paths out from
        under every session, so the catalog epoch moves (every cached plan
        is planned again) and the table's statistics are marked stale (the
        next RUNSTATS replaces them)."""
        index = self.database.rebuild_index(name)
        stats = self.database.catalog.statistics(index.table_name)
        if stats is not None:
            stats.stale = True

    # -------------------------------------------------------- soft constraints

    def add_soft_constraint(
        self,
        constraint: SoftConstraint,
        policy: Optional[MaintenancePolicy] = None,
        activate: bool = True,
        verify_first: bool = False,
    ) -> SoftConstraint:
        """Register (and by default activate) a soft constraint.

        The registration is one WAL statement: a crash between the
        register and activate snapshots cannot leave a half-registered
        constraint for recovery to resurrect.
        """
        with self.database._statement_scope():
            self.registry.register(constraint, policy=policy)
            if activate:
                self.registry.activate(
                    constraint.name, verify_first=verify_first
                )
        return constraint

    # ----------------------------------------------------------- DDL internals

    def _next_constraint_name(self, table: str, kind: str) -> str:
        self._constraint_sequence += 1
        return f"{table}_{kind}_{self._constraint_sequence}"

    def _execute_create_table(self, statement: ast.CreateTable) -> None:
        columns = []
        for definition in statement.columns:
            sql_type = type_from_name(definition.type_name, definition.length)
            columns.append(
                Column(
                    definition.name,
                    sql_type,
                    nullable=not (definition.not_null or definition.primary_key),
                )
            )
        schema = TableSchema(statement.name, columns)
        constraints: List[Constraint] = []
        for definition in statement.constraints:
            constraints.append(
                self._constraint_from_def(statement.name, definition)
            )
        self.database.create_table(schema, constraints)

    def _constraint_from_def(
        self, table_name: str, definition: ast.ConstraintDef
    ) -> Constraint:
        mode = (
            ConstraintMode.ENFORCED
            if definition.enforced
            else ConstraintMode.INFORMATIONAL
        )
        if isinstance(definition, ast.PrimaryKeyDef):
            name = definition.name or self._next_constraint_name(table_name, "pk")
            return PrimaryKeyConstraint(name, table_name, definition.columns, mode)
        if isinstance(definition, ast.UniqueDef):
            name = definition.name or self._next_constraint_name(table_name, "uq")
            return UniqueConstraint(name, table_name, definition.columns, mode)
        if isinstance(definition, ast.ForeignKeyDef):
            name = definition.name or self._next_constraint_name(table_name, "fk")
            parent_columns = definition.parent_columns
            if not parent_columns:
                parent_columns = self._default_parent_key(definition.parent_table)
            return ForeignKeyConstraint(
                name,
                table_name,
                definition.columns,
                definition.parent_table,
                parent_columns,
                mode,
            )
        assert isinstance(definition, ast.CheckDef)
        name = definition.name or self._next_constraint_name(table_name, "ck")
        assert definition.expression is not None
        return CheckConstraint(
            name,
            table_name,
            predicate=compile_predicate(definition.expression),
            expression=definition.expression,
            sql_text=definition.sql_text or sql_of(definition.expression),
            mode=mode,
        )

    def _default_parent_key(self, parent_table: str) -> List[str]:
        for constraint in self.database.catalog.constraints_on(parent_table):
            if isinstance(constraint, PrimaryKeyConstraint):
                return list(constraint.column_names)
        raise SqlError(
            f"REFERENCES {parent_table} without columns, and {parent_table} "
            f"has no primary key"
        )

    def _execute_create_summary(
        self, statement: ast.CreateSummaryTable
    ) -> None:
        """``CREATE SUMMARY TABLE name AS (SELECT * FROM t WHERE p)``.

        Per the paper (Section 4.4), such an AST expresses the business
        rule ``NOT p`` as a soft constraint whose exceptions the summary
        table materializes.  We register exactly that: a check SC with
        condition ``NOT p`` (verified, so its confidence is measured) plus
        the exception table under the requested name.
        """
        select = statement.select
        if (
            select is None
            or len(select.from_clause) != 1
            or not isinstance(select.from_clause[0], ast.TableRef)
            or select.where is None
            or not (
                len(select.select_items) == 1 and select.select_items[0].star
            )
        ):
            raise SqlError(
                "CREATE SUMMARY TABLE supports the exception-table form: "
                "SELECT * FROM one_table WHERE predicate"
            )
        base_table = select.from_clause[0].name
        rule = CheckSoftConstraint(
            name=f"{statement.name}_rule",
            table_name=base_table,
            condition=ast.UnaryOp("not", select.where),
        )
        self.registry.register(rule)
        self.registry.activate(rule.name, verify_first=True)
        ExceptionTable(self.database, rule, statement.name)

    # ------------------------------------------------------------ introspection

    def describe(self) -> str:
        """A human-readable catalog listing: tables, indexes, integrity
        constraints (with enforcement mode), summary tables, and soft
        constraints (with lifecycle state and confidence)."""
        lines: List[str] = []
        catalog = self.database.catalog
        for table_name in catalog.table_names():
            table = catalog.table(table_name)
            columns = ", ".join(
                f"{c.name} {c.type}" for c in table.schema.columns
            )
            lines.append(
                f"TABLE {table_name} ({columns}) "
                f"[{table.row_count} rows, {table.page_count} pages]"
            )
            for index in catalog.indexes_on(table_name):
                unique = "UNIQUE " if index.unique else ""
                lines.append(
                    f"  {unique}INDEX {index.name} "
                    f"({', '.join(index.column_names)})"
                )
            for constraint in catalog.constraints_on(table_name):
                mode = (
                    " NOT ENFORCED" if constraint.is_informational else ""
                )
                lines.append(f"  {constraint.describe()}{mode}")
        for name in sorted(catalog.summary_tables()):
            lines.append(f"SUMMARY TABLE {name}")
        for constraint_name in self.registry.names():
            lines.append(self.registry.get(constraint_name).describe())
        if self.durability is not None:
            lines.append(self.durability.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SoftDB(tables={self.database.catalog.table_names()}, "
            f"soft_constraints={self.registry.names()})"
        )


def _reissuing(
    run: Callable[[PhysicalPlan], ExecutionResult],
    plan: PhysicalPlan,
    replan: Callable[[], PhysicalPlan],
) -> Tuple[PhysicalPlan, ExecutionResult]:
    """Run ``plan``; if an ASC it relies on changed since it was planned,
    re-issue once with ``replan()`` — Section 4.1: "the re-issue can be
    done behind the scenes just as is done in the case of deadlock
    resolution."  Returns the plan that ran and its result."""
    try:
        return plan, run(plan)
    except StalePlanError:
        plan = replan()
        return plan, run(plan)


Handler = Callable[[SoftDB, Any, Any, tuple], Any]


def _dml(apply: Callable[..., int]) -> Handler:
    """A DML statement: the applier, under the context's discipline."""

    def handler(db, statement, context, options):
        return context._run_dml(
            partial(apply, context.plan_cache, statement), statement.table
        )

    return handler


def _ddl(run: Callable[[SoftDB, Any], None]) -> Handler:
    """A DDL statement: refused inside an open transaction, and one WAL
    statement — a crash (or fault) midway, e.g. halfway through CREATE
    SUMMARY TABLE's register/populate sequence, leaves no committed
    trace for recovery to replay."""

    def handler(db, statement, context, options):
        if context._txn is not None:
            raise TransactionError(
                "only DML is supported inside an explicit transaction"
            )
        with db.database._statement_scope():
            run(db, statement)

    return handler


#: Statement kind -> ``handler(db, statement, context, options)``: the
#: only dispatch on statement kinds outside ``repro.sql``.
_HANDLERS: Dict[type, Handler] = {
    ast.SelectStatement: SoftDB._select,
    ast.UnionAll: SoftDB._select,
    ast.BeginTransaction: lambda db, s, context, options: context._begin(),
    ast.CommitTransaction: lambda db, s, context, options: context._commit(),
    ast.RollbackTransaction: lambda db, s, context, options: context._rollback(),
    ast.Insert: _dml(dml.apply_insert),
    ast.Delete: _dml(dml.apply_delete),
    ast.Update: _dml(dml.apply_update),
    ast.CreateTable: _ddl(SoftDB._execute_create_table),
    ast.CreateIndex: _ddl(
        lambda db, s: db.database.create_index(
            s.name, s.table, s.columns, unique=s.unique
        )
    ),
    ast.CreateSummaryTable: _ddl(SoftDB._execute_create_summary),
    ast.DropTable: _ddl(lambda db, s: db.database.drop_table(s.name)),
}

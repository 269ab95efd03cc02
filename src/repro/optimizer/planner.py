"""The optimizer facade: parse → bind → rewrite → cost-based compile.

:class:`Optimizer` produces :class:`~repro.optimizer.physical.PhysicalPlan`
objects; :class:`PlanCache` caches them by SQL text and registers
invalidation on the soft constraints each plan depends on, reproducing the
paper's plan-invalidation story (Section 4.1: when an ASC is overturned,
"every pre-compiled query plan that employs a violated ASC in its plan
must be dropped").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Union

from repro.engine.database import Database
from repro.errors import OptimizerError
from repro.expr import analysis
from repro.optimizer.access import AccessPathSelector
from repro.optimizer.builder import build_logical_plan
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.compilation import attach_compiled_expressions
from repro.optimizer.costmodel import CostModel
from repro.optimizer.joinorder import JoinOrderOptimizer
from repro.optimizer.logical import QueryBlock, UnionPlan
from repro.optimizer.physical import (
    Distinct,
    Extend,
    GroupBy,
    Limit,
    PhysicalNode,
    PhysicalPlan,
    Project,
    Sort,
    UnionAll,
)
from repro.optimizer.rewrite.engine import RewriteContext, RewriteEngine
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.printer import sql_of


@dataclass
class OptimizerConfig:
    """Feature switches for the rewrite rules and estimator.

    Every experiment's baseline is the same optimizer with the relevant
    switch off, so the benchmarks measure exactly one mechanism at a time.
    """

    enable_branch_elimination: bool = True
    enable_join_elimination: bool = True
    enable_groupby_simplification: bool = True
    enable_ast_routing: bool = True
    enable_predicate_introduction: bool = True
    enable_hole_trimming: bool = True
    enable_twinning: bool = True
    introduce_only_with_index: bool = True
    use_twinning_in_estimation: bool = True
    # Section 4.2: min/max abbreviation reads the SC's *current* bounds at
    # execution time instead of inlining them into the plan.
    enable_runtime_parameters: bool = True
    # Section 3.2: assess PROBATION constraints in a shadow rewrite pass,
    # counting the queries each would have helped.
    track_probation_usage: bool = True
    # Rows per batch of the production executor.  0 runs every plan on
    # the row-at-a-time oracle.  Mirrors
    # repro.executor.batch.DEFAULT_BATCH_SIZE, kept literal here so the
    # optimizer package never imports the executor.
    batch_size: int = 1024
    # Lower plan expressions to specialized closures at optimize time
    # (repro.expr.compile).  The production executor needs them: a plan
    # built with False carries none, so Executor.execute runs it on the
    # interpreted row-at-a-time oracle.
    compile_expressions: bool = True
    # Execution feedback (repro.feedback): instrument every execution,
    # harvest actual cardinalities into a FeedbackStore, estimate in the
    # estimator's "feedback" mode, and let the plan cache drop plans whose
    # observed max q-error exceeds the threshold.  Off by default: the
    # default path does no per-row counting at all.
    collect_feedback: bool = False
    # Plan-cache invalidation bar: a cached plan whose execution shows a
    # node misestimated by at least this factor is evicted and recompiled
    # with feedback-corrected estimates.
    feedback_qerror_threshold: float = 4.0


class Optimizer:
    """Compiles SQL (or parsed statements) into physical plans."""

    def __init__(
        self,
        database: Database,
        registry: Optional[object] = None,
        config: Optional[OptimizerConfig] = None,
        feedback: Optional[object] = None,
    ) -> None:
        self.database = database
        self.registry = registry
        self.config = config or OptimizerConfig()
        self.rewrite_engine = RewriteEngine()
        # A repro.feedback.store.FeedbackStore; when present, estimation
        # runs in the estimator's "feedback" mode.
        self.feedback = feedback

    # -- public API ----------------------------------------------------------

    def optimize(
        self, query: Union[str, ast.SelectStatement, ast.UnionAll]
    ) -> PhysicalPlan:
        if isinstance(query, str):
            sql = query
            statement = parse_statement(query)
        else:
            statement = query
            sql = sql_of(statement)
        if not ast.is_query(statement):
            raise OptimizerError("only SELECT statements can be optimized")
        plan = self.choose_plan(statement, sql)
        if self.config.compile_expressions:
            attach_compiled_expressions(plan)
        if self.config.track_probation_usage:
            self._assess_probation(statement, plan.sc_dependencies)
        return plan

    def choose_plan(
        self,
        statement: Union[ast.SelectStatement, ast.UnionAll],
        sql: str = "",
    ) -> PhysicalPlan:
        """:meth:`optimize` without its tail (expression compilation, the
        probation pass): what :func:`repro.dml.locate` plans a WHERE with,
        so writes do not fill the compile cache with one-off literals."""
        logical = build_logical_plan(self.database, statement)
        context = RewriteContext(self.database, self.registry, self.config)
        logical = self.rewrite_engine.rewrite(logical, context)

        estimator = CardinalityEstimator(
            self.database,
            use_twinning=self.config.use_twinning_in_estimation,
            combiner="feedback" if self.feedback is not None else "independence",
            feedback=self.feedback,
        )
        cost_model = CostModel(self.database)
        if isinstance(logical, UnionPlan):
            root, names = self._compile_union(logical, estimator, cost_model)
        else:
            root, names = self._compile_block(
                logical, estimator, cost_model, with_tail=True
            )
        plan = PhysicalPlan(root, names, sql)
        plan.sc_dependencies = context.sc_dependencies
        plan.sc_value_dependencies = context.sc_value_dependencies
        plan.rewrites_applied = context.applied
        plan.estimation_notes = context.estimation_notes
        self._snapshot_versions(plan)
        return plan

    def _snapshot_versions(self, plan: PhysicalPlan) -> None:
        """Record the used constraints' versions for stale-plan detection."""
        registry = self.registry
        if registry is None or not hasattr(registry, "get"):
            return
        for name in plan.sc_dependencies:
            plan.sc_validity_snapshot[name] = registry.get(
                name
            ).validity_version
        for name in plan.sc_value_dependencies:
            plan.sc_value_snapshot[name] = registry.get(name).values_version

    def _assess_probation(
        self, statement: Union[ast.SelectStatement, ast.UnionAll],
        used: Set[str],
    ) -> None:
        """Shadow rewrite pass crediting PROBATION SCs (Section 3.2).

        Re-runs the rewrite pipeline with probation constraints treated as
        active; any probation constraint the shadow pass depends on (but
        the real pass, whose dependencies are ``used``, did not) would have
        helped this query, so its usage counter is bumped.  Nothing from
        the shadow pass reaches the real plan.
        """
        registry = self.registry
        if registry is None or not hasattr(registry, "probation_names"):
            return
        probation = set(registry.probation_names())
        if not probation:
            return
        shadow_context = RewriteContext(
            self.database, registry.probation_shadow(), self.config
        )
        shadow_logical = build_logical_plan(self.database, statement)
        self.rewrite_engine.rewrite(shadow_logical, shadow_context)
        would_have_used = (shadow_context.sc_dependencies - used) & probation
        for name in would_have_used:
            registry.record_probation_use(name)

    # -- compilation ------------------------------------------------------------

    def _compile_union(
        self,
        union: UnionPlan,
        estimator: CardinalityEstimator,
        cost_model: CostModel,
    ) -> tuple:
        if not union.blocks:
            raise OptimizerError("empty UNION plan")
        names = [output.name for output in union.blocks[0].output]
        inputs: List[PhysicalNode] = []
        for block in union.blocks:
            node, _ = self._compile_block(
                block,
                estimator,
                cost_model,
                with_tail=False,
                project_names=names,
            )
            inputs.append(node)
        root: PhysicalNode = UnionAll(inputs)
        root.estimated_rows = sum(n.estimated_rows for n in inputs)
        root.estimated_cost = sum(n.estimated_cost for n in inputs)
        if union.order_by:
            sort = Sort(root, list(union.order_by))
            sort.estimated_rows = root.estimated_rows
            sort.estimated_cost = cost_model.sort_cost(
                root.estimated_cost, root.estimated_rows, len(union.order_by)
            )
            root = sort
        if union.limit is not None:
            limit = Limit(root, union.limit)
            limit.estimated_rows = min(root.estimated_rows, union.limit)
            limit.estimated_cost = root.estimated_cost
            root = limit
        return root, names

    def _compile_block(
        self,
        block: QueryBlock,
        estimator: CardinalityEstimator,
        cost_model: CostModel,
        with_tail: bool,
        project_names: Optional[List[str]] = None,
    ) -> tuple:
        selector = AccessPathSelector(self.database, estimator, cost_model)
        join_enum = JoinOrderOptimizer(estimator, cost_model)

        scans: Dict[str, PhysicalNode] = {}
        for bound in block.tables:
            conjuncts = estimator.single_binding_conjuncts(block, bound.binding)
            estimation = [
                predicate
                for predicate in block.estimation_predicates
                if analysis.tables_in(predicate.expression) == {bound.binding}
            ]
            scans[bound.binding] = selector.best_scan(
                bound.table_name, bound.binding, conjuncts, estimation
            )
        node = join_enum.best_join_tree(block, scans)

        binding_tables = estimator.block_binding_tables(block)
        if block.is_grouped:
            keys = [key for key in block.group_by if isinstance(key, ast.ColumnRef)]
            group = GroupBy(
                node,
                keys,
                block.aggregates,
                block.having,
                carried=list(block.group_carried),
            )
            group.estimated_rows = estimator.group_output_rows(
                node.estimated_rows, keys, binding_tables
            )
            group.estimated_cost = cost_model.group_by_cost(
                node.estimated_cost, node.estimated_rows
            )
            node = group

        extend = Extend(node, list(block.output))
        extend.estimated_rows = node.estimated_rows
        extend.estimated_cost = cost_model.project_cost(
            node.estimated_cost, node.estimated_rows
        )
        node = extend

        if with_tail and block.order_by:
            sort = Sort(node, list(block.order_by))
            sort.estimated_rows = node.estimated_rows
            sort.estimated_cost = cost_model.sort_cost(
                node.estimated_cost, node.estimated_rows, len(block.order_by)
            )
            node = sort

        names = project_names or [output.name for output in block.output]
        source_names = [output.name for output in block.output]
        project = Project(node, names, source_names=source_names)
        project.estimated_rows = node.estimated_rows
        project.estimated_cost = cost_model.project_cost(
            node.estimated_cost, node.estimated_rows
        )
        node = project

        if block.distinct:
            distinct = Distinct(node)
            distinct.estimated_rows = max(1.0, node.estimated_rows * 0.9)
            distinct.estimated_cost = cost_model.distinct_cost(
                node.estimated_cost, node.estimated_rows
            )
            node = distinct

        if with_tail and block.limit is not None:
            limit = Limit(node, block.limit)
            limit.estimated_rows = min(node.estimated_rows, block.limit)
            limit.estimated_cost = node.estimated_cost
            node = limit
        return node, names


class PlanCache:
    """Caches compiled plans and drops them when a dependency overturns.

    Reproduces the package/plan invalidation of Section 4.1: each cached
    plan registers invalidation hooks for every soft constraint it used —
    on the *validity* channel (overturn/demotion/drop) and, for plans that
    inlined SC values, on the *values* channel (a repair changed the
    statement).  ``invalidations`` counts evictions so E8 can report the
    cost of ASC violations on a precompiled workload.

    With ``backup_plans=True`` the cache also keeps Section 4.1's
    suggested "backup plan which is ASC-free" per SC-dependent entry:
    when a dependency fires, the entry *reverts to the backup* instead of
    being evicted, so the workload keeps running without a recompile
    (``fallbacks`` counts these reversions).

    With a ``qerror_threshold``, execution feedback also invalidates:
    :meth:`note_execution` drops a cached plan whose run showed a node
    misestimated by at least the threshold factor, so the next
    ``get_plan`` recompiles it against feedback-corrected estimates.
    Unlike a constraint overturn this is a *full* eviction — reverting to
    a backup would keep the very estimates that just proved wrong.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        backup_plans: bool = False,
        qerror_threshold: Optional[float] = None,
    ) -> None:
        if qerror_threshold is not None and qerror_threshold < 1.0:
            raise OptimizerError(
                f"qerror_threshold must be >= 1.0, got {qerror_threshold}"
            )
        self.optimizer = optimizer
        self.backup_plans = backup_plans
        self.qerror_threshold = qerror_threshold
        # Sessions share one optimizer but may share a cache too; every
        # public entry point (and the invalidation hooks, which fire on
        # whichever thread committed the overturning change) takes this
        # re-entrant lock, so concurrent lookups never observe a plan
        # mid-eviction.
        self._lock = threading.RLock()
        self._plans: Dict[str, PhysicalPlan] = {}
        self._backups: Dict[str, PhysicalPlan] = {}
        self._reverted: set = set()
        # (channel, sql) pairs with a live hook in the catalog.  Catalog
        # hooks fire once (fire_invalidation pops them), so each entry is
        # discarded when its hook runs; get_plan only registers when the
        # pair is absent, preventing duplicate hooks from piling up
        # across invalidate/recompile cycles for the same SQL.
        self._hooked: set = set()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.fallbacks = 0
        self.feedback_invalidations = 0
        self.guard_invalidations = 0

    def get_plan(
        self,
        sql: str,
        statement: Optional[Union[ast.SelectStatement, ast.UnionAll]] = None,
    ) -> PhysicalPlan:
        """The cached plan for ``sql``, compiled on a miss.

        A caller that already parsed ``sql`` passes the ``statement`` so
        a miss does not parse it again; the cache key stays the text.
        """
        with self._lock:
            cached = self._plans.get(sql)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
            plan = self.optimizer.optimize(
                sql if statement is None else statement
            )
            self._plans[sql] = plan
            self._reverted.discard(sql)
            if self.backup_plans and plan.sc_dependencies:
                self._backups[sql] = self._compile_backup(sql)
            for dependency in plan.sc_dependencies:
                self._register_hook(f"softconstraint:{dependency}", sql)
            for dependency in plan.sc_value_dependencies:
                self._register_hook(
                    f"softconstraint-values:{dependency}", sql
                )
            return plan

    def _register_hook(self, channel: str, sql: str) -> None:
        key = (channel, sql)
        if key in self._hooked:
            return
        self._hooked.add(key)

        def hook(_dep: str) -> None:
            # The catalog popped this hook to fire it; the pair must be
            # re-registered on the next compile of this SQL.
            with self._lock:
                self._hooked.discard(key)
                self._invalidate(sql)

        self.optimizer.database.catalog.on_invalidate(channel, hook)

    def _compile_backup(self, sql: str) -> PhysicalPlan:
        """An equivalent plan that uses no soft constraints at all."""
        backup_optimizer = Optimizer(
            self.optimizer.database, registry=None, config=self.optimizer.config
        )
        return backup_optimizer.optimize(sql)

    def _invalidate(self, sql: str) -> None:
        with self._lock:
            if sql in self._reverted or sql not in self._plans:
                return
            backup = self._backups.pop(sql, None)
            if backup is not None:
                # Section 4.1: "a flag is raised and packages revert to
                # the alternative plans."
                self._plans[sql] = backup
                self._reverted.add(sql)
                self.fallbacks += 1
            else:
                del self._plans[sql]
            self.invalidations += 1

    def note_execution(self, sql: str, max_qerror: Optional[float]) -> bool:
        """Feedback-driven invalidation: drop the cached plan for ``sql``
        if its execution's worst per-node q-error crossed the threshold.

        Returns True when a plan was evicted.  The eviction is full (no
        backup reversion) so the next ``get_plan`` recompiles with the
        feedback store's corrected estimates; the reverted marker is also
        cleared so a reverted backup plan can be replaced too.
        """
        with self._lock:
            if (
                self.qerror_threshold is None
                or max_qerror is None
                or max_qerror < self.qerror_threshold
                or sql not in self._plans
            ):
                return False
            self._evict_fully(sql)
            self.feedback_invalidations += 1
            return True

    def note_guard_breach(self, sql: str) -> bool:
        """A guarded execution of ``sql`` breached its resource budget:
        evict the cached plan unconditionally.

        A breach is stronger evidence than any q-error — the plan did so
        much more work than predicted that governance had to stop it — so
        no threshold applies and the eviction is full (no backup
        reversion, same reasoning as :meth:`note_execution`).  Returns
        True when a plan was evicted.
        """
        with self._lock:
            if sql not in self._plans:
                return False
            self._evict_fully(sql)
            self.guard_invalidations += 1
            return True

    def invalidate_table(self, table_name: str) -> int:
        """Fully evict every cached plan that touches ``table_name``.

        Used when a table's physical access paths change under the cache
        (e.g. an index was rebuilt after corruption): cached plans may
        carry the old index object or estimates keyed to it.  Full
        eviction (no backup reversion — the backup reads the same table)
        so the next ``get_plan`` recompiles.  Returns the eviction count.
        """
        name = table_name.lower()
        evicted = 0
        with self._lock:
            for sql, plan in list(self._plans.items()):
                if name in plan.tables():
                    self._evict_fully(sql)
                    evicted += 1
        return evicted

    def _evict_fully(self, sql: str) -> None:
        """Drop the plan and its backup (lock held; ``sql`` is cached)."""
        del self._plans[sql]
        self._backups.pop(sql, None)
        self._reverted.discard(sql)
        self.invalidations += 1

    # Kept as the historical name for direct eviction in tests/tools.
    def _evict(self, sql: str) -> None:
        self._invalidate(sql)

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._backups.clear()
            self._reverted.clear()

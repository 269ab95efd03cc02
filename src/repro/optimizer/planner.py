"""The optimizer facade: parse → bind → rewrite → cost-based compile.

:class:`Optimizer` produces :class:`~repro.optimizer.physical.PhysicalPlan`
objects; :class:`PlanCache` caches them per statement shape, with the
literals bound at execution as runtime parameters (Section 4.2), and
registers invalidation on the soft constraints each plan depends on,
reproducing the paper's plan-invalidation story (Section 4.1: when an ASC
is overturned, "every pre-compiled query plan that employs a violated ASC
in its plan must be dropped").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple,
    Union,
)

from repro.engine.database import Database
from repro.errors import OptimizerError
from repro.expr import analysis
from repro.expr.cache import LoweringCache
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
from repro.optimizer.rewrite.engine import RULES, RewriteContext, RewriteEngine
from repro.sql import ast
from repro.sql.lifting import lift
from repro.sql.parser import parse_statement
from repro.sql.printer import sql_of


@dataclass(frozen=True)
class OptimizerConfig:
    """What the optimizer plans with and how its plans run.

    Every experiment's baseline is the same optimizer with the relevant
    rewrite named in ``disabled_rules`` (names from
    :data:`~repro.optimizer.rewrite.engine.RULES`), so the benchmarks
    measure exactly one mechanism at a time.  Frozen: the facade, the
    optimizer and every session's plan cache share one instance, and
    cached plans are not keyed by it.
    """

    disabled_rules: FrozenSet[str] = frozenset()
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

    def __post_init__(self) -> None:
        disabled = frozenset(self.disabled_rules)
        unknown = sorted(disabled.difference(RULES))
        if unknown:
            raise OptimizerError(
                f"unknown rewrite rule(s) {unknown}; the rules are {list(RULES)}"
            )
        object.__setattr__(self, "disabled_rules", disabled)


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
        the shadow pass reaches the real plan.  Only probation SCs on the
        statement's tables can be credited, so without one the pass is
        skipped.
        """
        registry = self.registry
        if registry is None or not hasattr(registry, "probation_names"):
            return
        probation = registry.probation_names()
        if probation:
            tables = _statement_tables(statement)
            probation = {
                name
                for name in probation
                if any(registry.get(name).affected_by(t) for t in tables)
            }
        if not probation:
            return
        shadow_context = RewriteContext(
            self.database, registry.probation_shadow(), self.config
        )
        binding = ast.current_binding()
        with ast.binding_scope(binding.values if binding else ()):
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


#: Statement shapes one cache holds; past this the least recently used go.
CAPACITY = 1024
#: Plans kept per shape, each for the bindings its rewrites hold under.
VARIANTS = 4


def _statement_tables(
    statement: Union[ast.SelectStatement, ast.UnionAll],
) -> Set[str]:
    """The base tables a statement's FROM clauses name."""
    tables: Set[str] = set()

    def visit(item: Union[ast.TableRef, ast.Join]) -> None:
        if isinstance(item, ast.Join):
            visit(item.left)
            visit(item.right)
        else:
            tables.add(item.name)

    selects = (
        statement.branches if isinstance(statement, ast.UnionAll) else [statement]
    )
    for select in selects:
        for item in select.from_clause:
            visit(item)
    return tables


class _Entry:
    """One cached plan of a shape, and what reusing it is conditional on."""

    __slots__ = ("plan", "backup", "epoch", "pins", "guards")

    def __init__(
        self,
        plan: PhysicalPlan,
        backup: Optional[PhysicalPlan],
        epoch: int,
        pins: Tuple[Tuple[int, Any], ...],
        guards: List[Callable[[], bool]],
    ) -> None:
        self.plan = plan
        self.backup = backup
        self.epoch = epoch
        self.pins = pins
        self.guards = guards

    def serves(self, values: Tuple[Any, ...], epoch: int, registry: Any) -> bool:
        """Whether the plan is right for these slot values now."""
        return (
            self.epoch == epoch
            and all(values[slot] == value for slot, value in self.pins)
            and not self.plan.stale_constraints(registry)
            and all(check() for check in self.guards)
        )


class PlanCache:
    """Plans each SELECT once per shape and drops plans whose
    dependencies change.

    **Shapes** (Section 4.2).  :meth:`get_plan` lifts the statement's
    literals into slots (:mod:`repro.sql.lifting`) and binds their values
    in the calling context, where planning peeks them and execution
    reads them.  A later statement that differs only in those values
    reuses the plan.  An entry serves a statement only while

    * the catalog epoch it was planned at is current: DDL, statistics,
      soft-constraint registration and activation move it;
    * every slot pinned while planning has the same value: one a rewrite
      or an index key copied into the plan, or one a rewrite's choice
      turned on;
    * every guard a rewrite recorded holds for the new values: a min/max
      fold to the empty set is right only for ranges outside the bounds;
    * the soft constraints it used are as it saw them.

    Otherwise the statement is planned again and the plan kept beside
    the shape's others, up to :data:`VARIANTS` per shape and
    :data:`CAPACITY` shapes.  Estimates and access paths are peeked
    without guards: they change the cost, never the rows.

    **Invalidation** (Section 4.1).  Each cached plan registers
    invalidation hooks for every soft constraint it used — on the
    *validity* channel (overturn/demotion/drop) and, for plans that
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
        # mid-eviction.  Planning itself runs outside it.
        self._lock = threading.RLock()
        # shape key -> [_Entry], most recently planned first.
        self._shapes = LoweringCache(CAPACITY)
        # Channels with a live hook in the catalog.  Catalog hooks fire
        # once (fire_invalidation pops them), so each channel is
        # discarded when its hook runs and hooked again by the next plan
        # that depends on it: one hook per channel, however many plans.
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
        """The plan for ``sql``'s shape, compiled on a miss, with the
        statement's literal values bound in the calling context until its
        next lookup.

        A caller that already parsed ``sql`` passes the ``statement`` so
        a miss does not parse it again.  A miss plans outside the cache
        lock and keeps the plan only if the catalog epoch and the soft
        constraints it used did not move meanwhile.
        """
        if statement is None:
            statement = parse_statement(sql)
        lifted, values, key = lift(statement)
        binding = ast.bind(values)
        optimizer = self.optimizer
        catalog = optimizer.database.catalog
        with self._lock:
            shape = self._shapes.get_or_build(key, _new_shape)
            epoch = catalog.epoch
            plan = next(
                (
                    entry.plan
                    for entry in shape
                    if entry.serves(values, epoch, optimizer.registry)
                ),
                None,
            )
            if plan is None:
                self.misses += 1
            else:
                self.hits += 1
        if plan is not None:
            # Credit PROBATION SCs exactly as planning fresh would.
            optimizer._assess_probation(lifted, plan.sc_dependencies)
            return plan
        plan = optimizer.optimize(lifted)
        backup = None
        if self.backup_plans and plan.sc_dependencies:
            backup = self._compile_backup(lifted)
        pins = tuple((slot, values[slot]) for slot in sorted(binding.pins))
        with self._lock:
            if catalog.epoch != epoch or plan.stale_constraints(
                optimizer.registry
            ):
                return plan
            shape.insert(0, _Entry(plan, backup, epoch, pins, binding.guards))
            del shape[VARIANTS:]
            for name in plan.sc_dependencies:
                self._hook(f"softconstraint:{name}", name, "sc_dependencies")
            for name in plan.sc_value_dependencies:
                self._hook(
                    f"softconstraint-values:{name}", name,
                    "sc_value_dependencies",
                )
        return plan

    def _hook(self, channel: str, name: str, uses: str) -> None:
        """Invalidate, when ``channel`` fires, every entry whose plan
        lists ``name`` among its ``uses``."""
        if channel in self._hooked:
            return
        self._hooked.add(channel)

        def hook(_dep: str) -> None:
            with self._lock:
                self._hooked.discard(channel)
                for shape, entry in self._entries():
                    if name in getattr(entry.plan, uses):
                        self._invalidate(shape, entry)

        self.optimizer.database.catalog.on_invalidate(channel, hook)

    def _compile_backup(
        self, statement: Union[ast.SelectStatement, ast.UnionAll]
    ) -> PhysicalPlan:
        """An equivalent plan that uses no soft constraints at all."""
        backup_optimizer = Optimizer(
            self.optimizer.database, registry=None, config=self.optimizer.config
        )
        return backup_optimizer.optimize(statement)

    def _invalidate(self, shape: List[_Entry], entry: _Entry) -> None:
        if entry.backup is not None:
            # Section 4.1: "a flag is raised and packages revert to the
            # alternative plans."
            entry.plan, entry.backup = entry.backup, None
            self.fallbacks += 1
        else:
            shape.remove(entry)
        self.invalidations += 1

    def note_execution(
        self, plan: PhysicalPlan, max_qerror: Optional[float]
    ) -> bool:
        """Feedback-driven invalidation: evict ``plan`` if its execution's
        worst per-node q-error crossed the threshold.

        Returns True when a plan was evicted.  The eviction is full (no
        backup reversion) so the next ``get_plan`` recompiles with the
        feedback store's corrected estimates.
        """
        with self._lock:
            if (
                self.qerror_threshold is None
                or max_qerror is None
                or max_qerror < self.qerror_threshold
                or not self._evict(plan)
            ):
                return False
            self.feedback_invalidations += 1
            return True

    def note_guard_breach(self, plan: PhysicalPlan) -> bool:
        """A guarded execution of ``plan`` breached its resource budget:
        evict it unconditionally.

        A breach is stronger evidence than any q-error — the plan did so
        much more work than predicted that governance had to stop it — so
        no threshold applies and the eviction is full (no backup
        reversion, same reasoning as :meth:`note_execution`).  Returns
        True when a plan was evicted.
        """
        with self._lock:
            if not self._evict(plan):
                return False
            self.guard_invalidations += 1
            return True

    def _evict(self, plan: PhysicalPlan) -> bool:
        """Drop the entry serving ``plan`` and its backup, if cached."""
        with self._lock:
            for shape, entry in self._entries():
                if entry.plan is plan:
                    shape.remove(entry)
                    self.invalidations += 1
                    return True
            return False

    def _entries(self) -> Iterator[Tuple[List[_Entry], _Entry]]:
        """Every cached entry with the shape list holding it."""
        for shape in self._shapes.values():
            for entry in list(shape):
                yield shape, entry

    @property
    def backups(self) -> int:
        """Entries holding an ASC-free backup plan."""
        with self._lock:
            return sum(entry.backup is not None for _, entry in self._entries())

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> None:
        with self._lock:
            self._shapes.clear()


def _new_shape(_key: Any) -> List[_Entry]:
    return []

"""Rewrite-engine driver and shared context."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, TYPE_CHECKING

from repro.engine.database import Database
from repro.expr import analysis
from repro.optimizer.logical import LogicalPlan, QueryBlock, UnionPlan
from repro.sql import ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.optimizer.planner import OptimizerConfig
    from repro.softcon.registry import SoftConstraintRegistry


class RewriteContext:
    """State shared by all rules during one rewrite pass."""

    def __init__(
        self,
        database: Database,
        registry: Optional["SoftConstraintRegistry"],
        config: "OptimizerConfig",
    ) -> None:
        self.database = database
        self.registry = registry
        self.config = config
        self.applied: List[str] = []
        self.sc_dependencies: Set[str] = set()
        self.sc_value_dependencies: Set[str] = set()
        self.estimation_notes: List[str] = []

    def record(self, rule: str, detail: str) -> None:
        self.applied.append(f"{rule}: {detail}")

    def depend_on(self, constraint_name: str) -> None:
        """Record that the plan inlined the constraint's *values*.

        The plan becomes invalid both when the constraint is overturned
        and when a repair changes its statement (e.g. min/max widening) —
        the inlined constants would silently drop rows otherwise.
        """
        self.sc_dependencies.add(constraint_name.lower())
        self.sc_value_dependencies.add(constraint_name.lower())

    def depend_on_validity(self, constraint_name: str) -> None:
        """Record a dependency on the constraint *holding*, not its values.

        Used by rules whose rewrite survives value repairs (FD-based
        simplification, runtime-parameterized ranges): only an overturn or
        demotion invalidates the plan.
        """
        self.sc_dependencies.add(constraint_name.lower())

    @staticmethod
    def pin(conjuncts: Sequence[ast.Expression]) -> None:
        """The rule copied values it read from ``conjuncts`` into the
        plan, or which way it went turned on them: a cached plan is reused
        only for the same values of their binding slots (see
        :mod:`repro.sql.lifting`)."""
        ast.pin(analysis.slots_in(conjuncts))


RewriteRule = Callable[[LogicalPlan, RewriteContext], LogicalPlan]


class RewriteEngine:
    """Applies the rule pipeline to a logical plan.

    The rule list is configurable so experiments can ablate individual
    rewrites (every benchmark's baseline is "same optimizer, rule off").
    """

    def __init__(self, rules: Optional[List[RewriteRule]] = None) -> None:
        if rules is None:
            rules = default_rules()
        self.rules = rules

    def rewrite(
        self, plan: LogicalPlan, context: RewriteContext
    ) -> LogicalPlan:
        for rule in self.rules:
            plan = rule(plan, context)
        return plan


def default_rules() -> List[RewriteRule]:
    """The full pipeline in canonical order."""
    from repro.optimizer.rewrite.branch_elimination import eliminate_branches
    from repro.optimizer.rewrite.join_elimination import eliminate_joins
    from repro.optimizer.rewrite.groupby_simplification import simplify_grouping
    from repro.optimizer.rewrite.ast_routing import route_through_exceptions
    from repro.optimizer.rewrite.predicate_introduction import introduce_predicates
    from repro.optimizer.rewrite.twinning import add_twinned_predicates

    return [
        eliminate_branches,
        eliminate_joins,
        simplify_grouping,
        route_through_exceptions,
        introduce_predicates,
        add_twinned_predicates,
    ]


def map_blocks(
    plan: LogicalPlan,
    transform: Callable[[QueryBlock], QueryBlock],
) -> LogicalPlan:
    """Apply a per-block transform across a block or union plan."""
    if isinstance(plan, QueryBlock):
        return transform(plan)
    return UnionPlan(
        blocks=[transform(block) for block in plan.blocks],
        order_by=plan.order_by,
        limit=plan.limit,
    )

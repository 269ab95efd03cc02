"""Measurement helpers shared by the benchmark suite.

Classification of A/B measurements (WIN/REGRESSION statuses, validation
confidence, measured-vs-ceiling segregation) lives in
:mod:`repro.harness.classify`; this module supplies the raw measurements
those statuses are computed from.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.api import SoftDB
from repro.executor.runtime import ExecutionResult, Executor
from repro.harness.classify import normalized_row_key
from repro.optimizer.planner import Optimizer, OptimizerConfig
from repro.optimizer.physical import PhysicalPlan


class PlanMeasurement:
    """One measured execution: plan provenance + actual I/O + results."""

    def __init__(
        self, label: str, plan: PhysicalPlan, result: ExecutionResult
    ) -> None:
        self.label = label
        self.plan = plan
        self.result = result

    @property
    def page_reads(self) -> int:
        return self.result.page_reads

    @property
    def row_count(self) -> int:
        return self.result.row_count

    @property
    def estimated_rows(self) -> float:
        return self.plan.estimated_rows

    @property
    def rewrites(self) -> List[str]:
        return self.plan.rewrites_applied

    def __repr__(self) -> str:
        return (
            f"PlanMeasurement({self.label}: rows={self.row_count}, "
            f"pages={self.page_reads})"
        )


def measure_query(
    db: SoftDB,
    sql: str,
    optimizer: Optional[Optimizer] = None,
    label: str = "",
) -> PlanMeasurement:
    """Optimize and execute, capturing plan and actual I/O."""
    chosen = optimizer if optimizer is not None else db.optimizer
    plan = chosen.optimize(sql)
    result = Executor(db.database).execute(plan)
    return PlanMeasurement(label or sql[:40], plan, result)


def compare_optimizers(
    db: SoftDB,
    sql: str,
    enabled_config: Optional[OptimizerConfig] = None,
    disabled_config: Optional[OptimizerConfig] = None,
    check_same_answers: bool = True,
) -> Tuple[PlanMeasurement, PlanMeasurement]:
    """Run the same query with a mechanism on vs. off.

    Returns (with_mechanism, without_mechanism) measurements; asserts the
    two plans return identical multisets of rows (the correctness
    guarantee every semantics-preserving rewrite must satisfy).
    """
    with_optimizer = Optimizer(
        db.database, db.registry, enabled_config or OptimizerConfig()
    )
    without_optimizer = Optimizer(
        db.database,
        db.registry,
        disabled_config or all_off(),
    )
    enabled = measure_query(db, sql, with_optimizer, label="with")
    disabled = measure_query(db, sql, without_optimizer, label="without")
    if check_same_answers:
        left = sorted(map(_row_key, enabled.result.tuples()))
        right = sorted(map(_row_key, disabled.result.tuples()))
        if left != right:
            raise AssertionError(
                f"rewrite changed answers for {sql!r}: "
                f"{len(left)} vs {len(right)} rows"
            )
    return enabled, disabled


#: Result-row sort key; canonical implementation is in the classify layer.
_row_key = normalized_row_key


def all_off(**overrides: Any) -> OptimizerConfig:
    """The SC-off baseline: every constraint-driven mechanism disabled.

    ``overrides`` pass through to :class:`OptimizerConfig` (e.g.
    ``batch_size=0, compile_expressions=False`` selects the interpreted
    row-at-a-time oracle configuration).
    """
    return OptimizerConfig(
        enable_branch_elimination=False,
        enable_join_elimination=False,
        enable_groupby_simplification=False,
        enable_ast_routing=False,
        enable_predicate_introduction=False,
        enable_hole_trimming=False,
        enable_twinning=False,
        use_twinning_in_estimation=False,
        **overrides,
    )

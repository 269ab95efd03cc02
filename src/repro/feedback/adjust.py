"""Loop 1: feed execution feedback into soft-constraint currency.

The paper's currency model (Section 4.3) *predicts* how stale a soft
constraint has become from update counts alone.  Execution feedback adds
the missing observational check: when a table's scans keep misestimating
(high q-error), something the optimizer believed about that table is
wrong — quite possibly one of its soft constraints.  The
:class:`FeedbackAdjuster` re-verifies exactly the constraints on those
suspect tables:

* **SSCs** get fresh measured confidence (``verify`` recomputes it from
  actual violation counts), which directly tightens or relaxes the
  twinned-predicate selectivity blend in estimation; their currency
  model is reset, zeroing the predicted margin of error.
* **ASCs** found violated are handed to their registered
  :class:`~repro.softcon.maintenance.MaintenancePolicy` — the same path
  a synchronous update-time detection would take (drop, repair, demote,
  or async-queue), so "predicted holes that turn out non-empty" trigger
  real maintenance instead of silently corrupting rewrites.

This is deliberately *targeted*: only tables (or join pairs) whose
observed q-error crossed ``suspect_qerror`` pay verification cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.errors import FeedbackError
from repro.feedback.store import FeedbackStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.softcon.registry import SoftConstraintRegistry
    from repro.storage.database import Database

#: Worst-scan q-error at which a table's constraints get re-verified.
DEFAULT_SUSPECT_QERROR = 4.0


class FeedbackAdjuster:
    """Re-verify soft constraints on tables the feedback flags as suspect."""

    def __init__(
        self,
        registry: "SoftConstraintRegistry",
        store: FeedbackStore,
        database: "Database",
        suspect_qerror: float = DEFAULT_SUSPECT_QERROR,
    ) -> None:
        if suspect_qerror < 1.0:
            raise FeedbackError(
                f"suspect_qerror must be >= 1.0, got {suspect_qerror}"
            )
        self.registry = registry
        self.store = store
        self.database = database
        self.suspect_qerror = suspect_qerror
        self.applications = 0

    def suspect_tables(self) -> Dict[str, float]:
        """table → worst observed q-error, over scans *and* join edges."""
        suspects = dict(
            self.store.tables_with_qerror(min_qerror=self.suspect_qerror)
        )
        for tables, q in self.store.join_table_qerrors().items():
            if q < self.suspect_qerror:
                continue
            for table in tables:
                if q > suspects.get(table, 0.0):
                    suspects[table] = q
        return suspects

    def apply(self) -> List[str]:
        """Run one adjustment pass; returns human-readable action lines."""
        self.applications += 1
        suspects = self.suspect_tables()
        if not suspects:
            return []
        actions: List[str] = []
        for constraint in self.registry.all():
            if not constraint.usable_in_estimation:
                continue
            tables = [t.lower() for t in constraint.table_names()]
            worst = max(
                (suspects[t] for t in tables if t in suspects), default=None
            )
            if worst is None:
                continue
            was_absolute = constraint.is_absolute
            before = constraint.confidence
            violations, total = self.registry.reverify(constraint)
            if was_absolute and violations > 0:
                # The predicted-empty hole is not empty: maintenance time.
                policy = self.registry.policy_for(constraint)
                policy.on_violation(self.registry, constraint, None)
                actions.append(
                    f"asc {constraint.name}: {violations}/{total} violations "
                    f"on suspect table (qerr~{worst:.1f}) -> "
                    f"policy[{policy.name}] applied, state={constraint.state.value}"
                )
            else:
                actions.append(
                    f"ssc {constraint.name}: confidence "
                    f"{before:.3f} -> {constraint.confidence:.3f} "
                    f"({violations}/{total} violations, qerr~{worst:.1f}), "
                    f"currency reset"
                )
        return actions

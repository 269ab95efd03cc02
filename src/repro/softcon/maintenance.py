"""Maintenance policies for soft constraints (paper Section 4.3).

When an update violates an ACTIVE absolute soft constraint, the registry
applies the constraint's maintenance policy:

* :class:`DropPolicy` — "the maintenance policy of last resort": overturn
  the ASC (state VIOLATED), invalidating every dependent cached plan.
* :class:`RepairPolicy` — *synchronous repair* where the constraint kind
  supports a cheap one (:meth:`~repro.softcon.base.SoftConstraint.repair`):
  min/max bounds widen, linear correlations widen their deviation, join
  holes are split around the violating point (the suboptimal-but-sound
  repair the paper describes); kinds without one (check SCs, FDs) are
  demoted to statistical (their confidence absorbs the violation).
* :class:`AsyncRepairPolicy` — overturn now, queue the constraint for a
  full re-verification later (``run_pending``), which reinstates it with a
  freshly-measured confidence or drops it below a threshold.

Every policy action is counted so E8 can report maintenance overhead.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Type, TYPE_CHECKING

from repro.softcon.base import SCState, SoftConstraint

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import Database
    from repro.softcon.registry import SoftConstraintRegistry


class MaintenancePolicy:
    """Base policy: what to do when an ACTIVE ASC is violated."""

    name = "abstract"

    def on_violation(
        self,
        registry: "SoftConstraintRegistry",
        constraint: SoftConstraint,
        violating_row: Optional[dict],
    ) -> None:
        raise NotImplementedError

    def record(self) -> Optional[Dict[str, Any]]:
        """The WAL/checkpoint record; None for a policy recovery cannot
        rebuild (the registry default applies to its constraint)."""
        return None

    @classmethod
    def from_record(cls, state: Dict[str, Any]) -> "MaintenancePolicy":
        return cls()

    @staticmethod
    def named(type_name: str) -> Optional[Type["MaintenancePolicy"]]:
        """The policy a record's ``type`` field names, if known."""
        return _POLICIES.get(type_name)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class DropPolicy(MaintenancePolicy):
    """Overturn the constraint; dependent plans are invalidated."""

    name = "drop"

    def on_violation(
        self,
        registry: "SoftConstraintRegistry",
        constraint: SoftConstraint,
        violating_row: Optional[dict],
    ) -> None:
        registry.overturn(constraint)

    def record(self) -> Optional[Dict[str, Any]]:
        return {"type": "DropPolicy"}


class RepairPolicy(MaintenancePolicy):
    """Synchronous, class-specific repair; falls back to demotion/drop.

    Repairs keep the constraint ACTIVE: the *validity* dependency channel
    does not fire, so plans that rely only on the constraint holding
    (runtime-parameterized ranges, FD simplification) survive.  The
    *values* channel does fire — a widened bound or split hole changes the
    statement, and any plan that inlined the old values must be dropped
    (it would silently lose rows).  A kind with no cheap repair (a
    generic check SC, an FD) is demoted to a statistical SC instead,
    invalidating both channels.
    """

    name = "repair"

    def on_violation(
        self,
        registry: "SoftConstraintRegistry",
        constraint: SoftConstraint,
        violating_row: Optional[dict],
    ) -> None:
        registry.repairs_performed += 1
        if violating_row is not None and constraint.repair(violating_row):
            # The statement changed: plans that inlined the old values
            # would silently drop the new row.
            registry.statement_changed(constraint)
        else:
            registry.demote(constraint)

    def record(self) -> Optional[Dict[str, Any]]:
        return {"type": "RepairPolicy"}


class AsyncRepairPolicy(MaintenancePolicy):
    """Overturn now; queue for asynchronous re-verification.

    ``run_pending`` is the "light-load period" job: it re-verifies each
    queued constraint against the database.  Constraints that verify clean
    are reinstated as ASCs; partially-violated ones come back as SSCs with
    the measured confidence, unless below ``drop_threshold``.

    ``drop_threshold`` is a bound on the *measured confidence*
    (``(total - violations) / total``), i.e. ``0.5`` means "give up and
    drop the constraint once more than half the rows violate it".
    Exactly-at-threshold confidence keeps the constraint (demoted to a
    statistical SC); only strictly-below drops it.  ``verify`` on an
    empty table yields confidence 1.0, so an emptied table always
    reinstates.
    """

    name = "async_repair"

    def __init__(self, drop_threshold: float = 0.5) -> None:
        if not 0.0 <= drop_threshold <= 1.0:
            raise ValueError(
                f"drop_threshold must be in [0, 1], got {drop_threshold}"
            )
        self.drop_threshold = drop_threshold
        self.queue: List[SoftConstraint] = []

    def on_violation(
        self,
        registry: "SoftConstraintRegistry",
        constraint: SoftConstraint,
        violating_row: Optional[dict],
    ) -> None:
        registry.overturn(constraint)
        if constraint not in self.queue:
            self.queue.append(constraint)

    def record(self) -> Optional[Dict[str, Any]]:
        return {
            "type": "AsyncRepairPolicy",
            "drop_threshold": self.drop_threshold,
            "queue": [sc.name for sc in self.queue],
        }

    @classmethod
    def from_record(cls, state: Dict[str, Any]) -> "AsyncRepairPolicy":
        # The queue is re-resolved by name at restore time.
        return cls(drop_threshold=state["drop_threshold"])

    def run_pending(
        self, registry: "SoftConstraintRegistry", database: "Database"
    ) -> List[Tuple[str, str]]:
        """Process the repair queue; returns (name, outcome) pairs."""
        outcomes: List[Tuple[str, str]] = []
        pending, self.queue = self.queue, []
        for constraint in pending:
            if constraint.state is SCState.DROPPED:
                outcomes.append((constraint.name, "already-dropped"))
                continue
            violations, _ = registry.reverify(constraint, self._settle)
            registry.async_repairs_run += 1
            if constraint.state is SCState.DROPPED:
                outcomes.append((constraint.name, "dropped"))
            else:
                outcome = "demoted" if violations else "reinstated"
                outcomes.append((constraint.name, outcome))
        return outcomes

    def _settle(self, constraint: SoftConstraint) -> SCState:
        """Reinstate (as an SSC when partly violated) or give up."""
        if constraint.confidence >= self.drop_threshold:
            return SCState.ACTIVE
        return SCState.DROPPED


_POLICIES: Dict[str, Type[MaintenancePolicy]] = {
    policy.__name__: policy
    for policy in (DropPolicy, RepairPolicy, AsyncRepairPolicy)
}

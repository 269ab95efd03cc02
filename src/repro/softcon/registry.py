"""The soft-constraint registry: catalog of SCs and their maintenance.

The registry is the runtime heart of the paper's facility.  It:

* stores soft constraints by name and exposes the two views the optimizer
  needs — *rewrite-usable* (ACTIVE ASCs) and *estimation-usable* (ACTIVE
  SCs of any confidence);
* subscribes to the database's change events and performs **synchronous
  checking of ACTIVE ASCs** (SSCs are never checked at update time —
  Section 3's "SSCs do not have to be checked at update");
* applies the configured :class:`~repro.softcon.maintenance.MaintenancePolicy`
  when an ASC is violated;
* fires the catalog's plan-invalidation hooks when an ASC is overturned or
  demoted (Section 4.1: "every pre-compiled query plan that employs a
  violated ASC in its plan must be dropped"), and moves the catalog epoch
  when a constraint is registered, activated, held in probation or
  re-verified, so plans made before can take it up;
* tracks per-constraint currency (updates since verification) for the
  margin-of-error model of Section 3.3.

All checking work is counted in :attr:`checks_performed` /
:attr:`check_rows_probed` so E8 can report maintenance overhead per
update for hard ICs vs. informational vs. ASC vs. SSC.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.database import ChangeEvent, Database
from repro.errors import DuplicateObjectError, UnknownObjectError
from repro.softcon.base import SCState, SoftConstraint
from repro.softcon.currency import CurrencyModel
from repro.softcon.maintenance import DropPolicy, MaintenancePolicy


_ACTIVE = (SCState.ACTIVE,)
#: Maintained (ticked on every change) but only ACTIVE ones are checked.
_MAINTAINED = (SCState.ACTIVE, SCState.PROBATION)


class SoftConstraintRegistry:
    """Holds the database's soft constraints and maintains them."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._constraints: Dict[str, SoftConstraint] = {}
        self._policies: Dict[str, MaintenancePolicy] = {}
        self._currency: Dict[str, CurrencyModel] = {}
        self._default_policy: MaintenancePolicy = DropPolicy()
        # Probation assessment (Section 3.2): how often the optimizer
        # *would* have used each PROBATION constraint.
        self.probation_uses: Dict[str, int] = {}
        # Instrumentation for E8.
        self.checks_performed = 0
        self.check_rows_probed = 0
        self.violations_seen = 0
        self.overturn_events = 0
        self.repairs_performed = 0
        self.async_repairs_run = 0
        database.add_observer(self._on_change)

    # ------------------------------------------------------------ registration

    def register(
        self,
        constraint: SoftConstraint,
        policy: Optional[MaintenancePolicy] = None,
        activate: bool = False,
    ) -> SoftConstraint:
        """Add a constraint (as CANDIDATE unless ``activate``)."""
        if constraint.name in self._constraints:
            raise DuplicateObjectError(
                f"soft constraint {constraint.name!r} already registered"
            )
        for table_name in constraint.table_names():
            if not self.database.catalog.has_table(table_name):
                raise UnknownObjectError(
                    f"soft constraint {constraint.name!r} references unknown "
                    f"table {table_name!r}"
                )
        self._constraints[constraint.name] = constraint
        if policy is not None:
            self._policies[constraint.name] = policy
        self.refresh_currency(constraint, self.database)
        self.database.catalog.bump_epoch()
        if activate:
            self.activate(constraint.name)
        else:
            self._log_durable(constraint)
        return constraint

    def adopt(
        self,
        constraint: SoftConstraint,
        policy: Optional[MaintenancePolicy] = None,
        currency: Optional[CurrencyModel] = None,
    ) -> SoftConstraint:
        """Install a recovered constraint verbatim.

        Recovery's replacement for :meth:`register`: no table checks (the
        catalog was restored from the same image), no currency reset, no
        duplicate error (a WAL ``sc_state`` record legitimately overwrites
        the checkpoint's older snapshot of the same constraint), and no
        durability logging.
        """
        self._constraints[constraint.name] = constraint
        self.database.catalog.bump_epoch()
        if policy is not None:
            self._policies[constraint.name] = policy
        if currency is not None:
            self._currency[constraint.name] = currency
        elif constraint.name not in self._currency:
            self.refresh_currency(constraint, self.database)
        return constraint

    def _log_durable(self, constraint: SoftConstraint) -> None:
        """Snapshot one constraint's full state to the WAL (if attached).

        Called after every lifecycle or statement mutation so recovery can
        install the latest snapshot verbatim — and, because the record is
        tagged with the current transaction, an SC mutation triggered by a
        rolled-back (or crashed-out) statement vanishes with it.
        """
        durability = getattr(self.database, "durability", None)
        if durability is not None:
            durability.log_soft_constraint(
                constraint,
                self._policies.get(constraint.name),
                self._currency.get(constraint.name),
            )

    def get(self, name: str) -> SoftConstraint:
        try:
            return self._constraints[name.lower()]
        except KeyError:
            raise UnknownObjectError(
                f"unknown soft constraint {name!r}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._constraints)

    def all(self) -> List[SoftConstraint]:
        return list(self._constraints.values())

    def policy_for(self, constraint: SoftConstraint) -> MaintenancePolicy:
        return self._policies.get(constraint.name, self._default_policy)

    # ------------------------------------------------------------- lifecycle

    def activate(self, name: str, verify_first: bool = False) -> SoftConstraint:
        """Promote a constraint to ACTIVE (optionally verifying first).

        Verification refreshes the confidence; a constraint claimed
        absolute that fails verification is activated as a statistical SC
        with the measured confidence instead (never silently wrong).
        """
        constraint = self.get(name)
        if verify_first:
            self.reverify(constraint, lambda _: SCState.ACTIVE)
            return constraint
        if constraint.state is not SCState.ACTIVE:
            constraint.transition(SCState.ACTIVE)
        self.database.catalog.bump_epoch()
        self._log_durable(constraint)
        return constraint

    def reverify(
        self,
        constraint: SoftConstraint,
        settle: Optional[Callable[[SoftConstraint], SCState]] = None,
    ) -> Tuple[int, int]:
        """Re-measure a constraint against the data and make it durable.

        Verifies (refreshing confidence), applies the lifecycle state
        ``settle`` chooses from the measurement, resets the currency
        model, and logs the result — every re-verification goes through
        here so none can leave the WAL holding a stale snapshot.
        """
        violations, total = constraint.verify(self.database)
        if settle is not None:
            state = settle(constraint)
            if state is not constraint.state:
                constraint.transition(state)
        self.database.catalog.bump_epoch()
        self.refresh_currency(constraint, self.database)
        self._log_durable(constraint)
        return violations, total

    def overturn(self, constraint: SoftConstraint) -> None:
        """Mark an ASC violated and invalidate dependent plans."""
        if constraint.state is SCState.ACTIVE:
            constraint.transition(SCState.VIOLATED)
        self.overturn_events += 1
        self._invalidate(constraint)

    def statement_changed(self, constraint: SoftConstraint) -> None:
        """A repair altered the constraint's statement (e.g. widened
        bounds): plans that inlined the old values must be dropped, but
        plans depending only on the constraint's *validity* survive."""
        self._invalidate(constraint, validity=False)

    def _invalidate(self, constraint: SoftConstraint, validity: bool = True) -> None:
        """Bump the plan-dependency versions, drop the dependent cached
        plans (Section 4.1) — values-only when ``validity`` is False —
        and log the constraint."""
        catalog = self.database.catalog
        if validity:
            constraint.validity_version += 1
            catalog.fire_invalidation(f"softconstraint:{constraint.name}")
        constraint.values_version += 1
        catalog.fire_invalidation(f"softconstraint-values:{constraint.name}")
        self._log_durable(constraint)

    def demote(self, constraint: SoftConstraint) -> None:
        """Absorb a violation into confidence: the ASC becomes an SSC.

        Rewrite-dependent plans are invalidated (the statement is no
        longer absolute); the constraint stays ACTIVE for estimation.
        """
        currency = self._currency.get(constraint.name)
        rows = currency.row_count if currency else 0
        total = max(1, rows + 1)
        satisfied = constraint.confidence * rows
        constraint.confidence = max(1e-9, min(satisfied / total, 1.0 - 1e-9))
        self._invalidate(constraint)

    # ------------------------------------------------------------- probation

    def hold_in_probation(self, name: str) -> SoftConstraint:
        """Move a CANDIDATE to PROBATION: maintained and assessed, but not
        yet employed by the optimizer (Section 3.2)."""
        constraint = self.get(name)
        constraint.transition(SCState.PROBATION)
        self.database.catalog.bump_epoch()
        self._log_durable(constraint)
        return constraint

    def probation_names(self) -> List[str]:
        return sorted(
            sc.name
            for sc in self._constraints.values()
            if sc.state is SCState.PROBATION
        )

    def record_probation_use(self, name: str) -> None:
        """The optimizer reports a query the probation SC would have
        helped (shadow-mode assessment)."""
        self.probation_uses[name.lower()] = (
            self.probation_uses.get(name.lower(), 0) + 1
        )

    def probation_report(self) -> List[Tuple[str, int]]:
        """(name, would-have-used count) for every PROBATION constraint."""
        return [
            (name, self.probation_uses.get(name, 0))
            for name in self.probation_names()
        ]

    def promote_ready(self, min_uses: int = 1) -> List[str]:
        """Activate probation constraints that proved useful; returns them."""
        promoted = []
        for name in self.probation_names():
            if self.probation_uses.get(name, 0) >= min_uses:
                self.activate(name)
                promoted.append(name)
        return promoted

    def probation_shadow(self) -> "ProbationShadowView":
        """A registry view where PROBATION constraints count as ACTIVE,
        used by the optimizer's shadow pass to assess their utility."""
        return ProbationShadowView(self)

    def drop(self, name: str) -> None:
        constraint = self.get(name)
        constraint.transition(SCState.DROPPED)
        self._invalidate(constraint)

    # ------------------------------------------------------------ optimizer views

    def rewrite_usable(self, table_name: Optional[str] = None) -> List[SoftConstraint]:
        """ACTIVE ASCs (optionally restricted to one table)."""
        return self._usable(_ACTIVE, True, table_name)

    def estimation_usable(
        self, table_name: Optional[str] = None
    ) -> List[SoftConstraint]:
        """ACTIVE SCs of any confidence (optionally for one table)."""
        return self._usable(_ACTIVE, False, table_name)

    def _usable(
        self, states, absolute: bool, table_name: Optional[str]
    ) -> List[SoftConstraint]:
        """Constraints in ``states`` (ASCs only when ``absolute``),
        optionally restricted to those a table's updates affect."""
        return [
            sc
            for sc in self._constraints.values()
            if sc.state in states
            and (sc.is_absolute or not absolute)
            and (table_name is None or sc.affected_by(table_name))
        ]

    # -------------------------------------------------------------- currency

    def refresh_currency(
        self, constraint: SoftConstraint, database: Database
    ) -> None:
        rows = sum(
            database.table(t).row_count for t in constraint.table_names()
        )
        model = self._currency.get(constraint.name)
        if model is None:
            self._currency[constraint.name] = CurrencyModel(rows)
        else:
            model.reset(rows)

    def currency(self, name: str) -> CurrencyModel:
        model = self._currency.get(name.lower())
        if model is None:
            raise UnknownObjectError(f"no currency model for {name!r}")
        return model

    def effective_confidence(self, constraint: SoftConstraint) -> float:
        """Stated confidence minus the staleness margin (lower bound).

        This is what the cautious estimator should use for an SSC that has
        not been re-verified recently.
        """
        model = self._currency.get(constraint.name)
        if model is None:
            return constraint.confidence
        return model.confidence_bounds(constraint.confidence)[0]

    # ------------------------------------------------------------ change events

    def _on_change(self, event: ChangeEvent) -> None:
        for constraint in self.replay_tick(event.table_name):
            if constraint.state is SCState.PROBATION:
                continue  # probation: inexpensively maintained, not checked
            if not constraint.is_absolute:
                continue  # SSCs are never checked at update time
            violating_row = self._synchronous_check(constraint, event)
            if violating_row is not None:
                self.violations_seen += 1
                self.policy_for(constraint).on_violation(
                    self, constraint, violating_row
                )

    def replay_tick(self, table_name: str) -> List[SoftConstraint]:
        """Advance staleness for one row change; returns the maintained
        (ACTIVE or PROBATION) constraints the change touched.

        Every change event starts here; redo replay calls it alone.  A
        replayed row change must advance the same staleness counters a
        live change would — ``updates_since_verified`` and the currency
        model — or recovered currency drifts from a never-crashed run.
        Violation handling is :meth:`_on_change`'s: during replay its
        outcome is already in the log as ``sc_state`` snapshots, which
        replay installs verbatim right after this tick.
        """
        touched = self._usable(_MAINTAINED, False, table_name)
        for constraint in touched:
            constraint.updates_since_verified += 1
            model = self._currency.get(constraint.name)
            if model is not None:
                model.record_update()
        return touched

    def _synchronous_check(
        self, constraint: SoftConstraint, event: ChangeEvent
    ) -> Optional[Dict[str, Any]]:
        """Check one event against one ACTIVE ASC.

        Returns what violates (a row dict, or a join pair) or None.
        Deletions cannot introduce violations for any supported
        constraint kind, so only the *new* row of an insert/update is
        examined.
        """
        if event.new_row is None:
            return None
        self.checks_performed += 1
        schema = self.database.table(event.table_name).schema
        row = dict(zip(schema.column_names(), event.new_row))
        violating, probed = constraint.check_new_row(
            self.database, event.table_name, row
        )
        self.check_rows_probed += probed
        return violating

    # --------------------------------------------------------------- reporting

    def instrumentation(self) -> Dict[str, int]:
        return {
            "checks_performed": self.checks_performed,
            "check_rows_probed": self.check_rows_probed,
            "violations_seen": self.violations_seen,
            "overturn_events": self.overturn_events,
            "repairs_performed": self.repairs_performed,
            "async_repairs_run": self.async_repairs_run,
        }


class ProbationShadowView:
    """A read-only registry view that treats PROBATION SCs as ACTIVE.

    The optimizer runs its rewrite pipeline once against this view (the
    "shadow pass") and compares the soft constraints used against the real
    pass: the difference is exactly the probation constraints that would
    have fired — the utility evidence Section 3.2's probationary period
    collects without ever employing the constraint for real.
    """

    def __init__(self, registry: SoftConstraintRegistry) -> None:
        self._registry = registry

    def rewrite_usable(self, table_name: Optional[str] = None) -> List[SoftConstraint]:
        return self._registry._usable(_MAINTAINED, True, table_name)

    def estimation_usable(
        self, table_name: Optional[str] = None
    ) -> List[SoftConstraint]:
        return self._registry._usable(_MAINTAINED, False, table_name)

    def effective_confidence(self, constraint: SoftConstraint) -> float:
        return self._registry.effective_confidence(constraint)

"""Soft-constraint base class and lifecycle states.

The lifecycle implements the paper's three-stage SC process (Section 3.2):
*discovery* produces CANDIDATE constraints; *selection* promotes the useful
ones (optionally through a PROBATION period in which they are maintained
but not yet employed); ACTIVE constraints are used by the optimizer;
*maintenance* may move a constraint to VIOLATED (an ASC contradicted by an
update) and finally DROPPED.

Confidence semantics (Section 3): an SC with confidence 1.0 over the
current state is an **absolute** soft constraint (ASC) and may be used in
semantics-preserving rewrites; an SC with confidence < 1.0 is a
**statistical** soft constraint (SSC) and may only steer cardinality
estimation.

Each SC *kind* is one subclass, and everything that differs between
kinds — its durable record, its synchronous check and cheap repair, its
selection utility, and the plain data the rewrite rules consume — is a
method here with a neutral default, overridden only where a kind
differs.  The registry, the policies, the codec, selection and the rules
call these methods and never name a kind.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Tuple, Type, TYPE_CHECKING

from repro.errors import SoftConstraintStateError
from repro.expr.intervals import Interval

if TYPE_CHECKING:  # pragma: no cover
    from repro.discovery.workload_model import Workload
    from repro.engine.database import Database
    from repro.expr.difference import DifferenceBound
    from repro.softcon.joinpath import JoinPathSpec
    from repro.sql import ast


class SCState(enum.Enum):
    """Lifecycle state of a soft constraint."""

    CANDIDATE = "candidate"
    PROBATION = "probation"
    ACTIVE = "active"
    VIOLATED = "violated"
    DROPPED = "dropped"


_ALLOWED_TRANSITIONS = {
    SCState.CANDIDATE: {SCState.PROBATION, SCState.ACTIVE, SCState.DROPPED},
    SCState.PROBATION: {SCState.ACTIVE, SCState.DROPPED},
    SCState.ACTIVE: {SCState.VIOLATED, SCState.DROPPED, SCState.ACTIVE},
    SCState.VIOLATED: {SCState.ACTIVE, SCState.DROPPED},
    SCState.DROPPED: set(),
}

#: Every kind by class name, filled as each subclass is defined; the
#: codec's ``class`` field resolves through it.
_KINDS: Dict[str, Type["SoftConstraint"]] = {}


class SoftConstraint:
    """Base class for all soft-constraint kinds.

    Attributes
    ----------
    name:
        Unique name within the registry.
    confidence:
        Fraction of rows satisfying the statement at the last verification
        (1.0 = absolute).
    state:
        Lifecycle state; only ACTIVE constraints reach the optimizer.
    updates_since_verified:
        Maintained by the registry; feeds the currency model
        (Section 3.3's margin-of-error discussion).
    """

    kind = "soft"
    #: Relative synchronous-maintenance cost per update, weighed against
    #: utility by selection (Section 3.2).
    maintenance_cost = 2.0

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        _KINDS[cls.__name__] = cls

    @staticmethod
    def kind_named(class_name: str) -> Optional[Type["SoftConstraint"]]:
        """The kind a durable record's ``class`` field names, if known."""
        return _KINDS.get(class_name)

    def __init__(self, name: str, confidence: float = 1.0) -> None:
        if not 0.0 < confidence <= 1.0:
            raise ValueError(
                f"confidence must be in (0, 1], got {confidence}"
            )
        self.name = name.lower()
        self.confidence = confidence
        self.state = SCState.CANDIDATE
        self.updates_since_verified = 0
        self.verified_epoch = 0
        self.violation_count = 0
        # Monotonic change counters for stale-plan detection (Section 4.1):
        # validity_version bumps when the constraint stops being usable as
        # compiled (overturn/demotion/drop); values_version additionally
        # bumps when a repair changes the statement's concrete values.
        self.validity_version = 0
        self.values_version = 0

    # -- classification ------------------------------------------------------

    @property
    def is_absolute(self) -> bool:
        """ASC: consistent with the current state (confidence 1.0)."""
        return self.confidence >= 1.0

    @property
    def is_statistical(self) -> bool:
        """SSC: holds for only part of the data."""
        return not self.is_absolute

    @property
    def usable_in_rewrite(self) -> bool:
        """Only ACTIVE ASCs may drive semantics-preserving rewrites."""
        return self.state is SCState.ACTIVE and self.is_absolute

    @property
    def usable_in_estimation(self) -> bool:
        """ACTIVE SCs (absolute or statistical) may steer estimation."""
        return self.state is SCState.ACTIVE

    # -- lifecycle ---------------------------------------------------------------

    def transition(self, new_state: SCState) -> None:
        """Move to a new lifecycle state, validating the transition."""
        if new_state not in _ALLOWED_TRANSITIONS[self.state]:
            raise SoftConstraintStateError(
                f"soft constraint {self.name!r}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def activate(self) -> None:
        self.transition(SCState.ACTIVE)

    def drop(self) -> None:
        self.transition(SCState.DROPPED)

    # -- interface for subclasses ---------------------------------------------------

    def table_names(self) -> List[str]:
        """Tables this constraint speaks about (one, or two for holes)."""
        raise NotImplementedError

    def statement_sql(self) -> str:
        """The constraint statement in SQL-ish text (for the catalog)."""
        raise NotImplementedError

    def row_satisfies(self, row: Dict[str, Any]) -> Optional[bool]:
        """Whether one row of the (single) constrained table satisfies the
        statement; ``None`` for UNKNOWN (which counts as satisfying, per
        CHECK-constraint semantics).  Multi-table constraints override
        :meth:`affected_by` / :meth:`verify` instead and raise here.
        """
        raise NotImplementedError

    def affected_by(self, table_name: str) -> bool:
        """Whether updates to ``table_name`` can invalidate the statement."""
        return table_name.lower() in self.table_names()

    def verify(self, database: "Database") -> Tuple[int, int]:
        """Re-check the statement against the database.

        Returns ``(violations, total_rows)`` and refreshes
        :attr:`confidence`.  The default implementation scans the single
        constrained table with :meth:`row_satisfies`.
        """
        (table_name,) = self.table_names()
        table = database.table(table_name)
        names = table.schema.column_names()
        total = 0
        violations = 0
        for row in table.scan_rows():
            total += 1
            if self.row_satisfies(dict(zip(names, row))) is False:
                violations += 1
        self.record_verification(violations, total)
        return violations, total

    def record_verification(self, violations: int, total: int) -> None:
        """Fold a verification result into confidence and bookkeeping."""
        self.confidence = 1.0 if total == 0 else max(
            1e-9, (total - violations) / total
        )
        self.violation_count = violations
        self.updates_since_verified = 0

    # -- durability ------------------------------------------------------------

    def record_fields(self) -> Dict[str, Any]:
        """The kind's statement as WAL/checkpoint record fields.

        The codec adds the name, confidence and lifecycle fields;
        :meth:`from_record` is the inverse.
        """
        raise NotImplementedError

    @classmethod
    def from_record(cls, state: Dict[str, Any]) -> "SoftConstraint":
        """Rebuild a CANDIDATE from a record :meth:`record_fields` wrote."""
        raise NotImplementedError

    # -- maintenance (Section 4.3) ---------------------------------------------

    def check_new_row(
        self, database: "Database", table_name: str, row: Dict[str, Any]
    ) -> Tuple[Optional[Dict[str, Any]], int]:
        """Synchronously check one inserted or updated row.

        Returns what violates (handed to the maintenance policy; None when
        nothing does) and how many rows deciding it examined, for the
        registry's ``check_rows_probed``.  The default judges the row
        alone.
        """
        return (row if self.row_satisfies(row) is False else None), 1

    def repair(self, violating: Dict[str, Any]) -> bool:
        """Cheap synchronous repair to admit ``violating`` (what
        :meth:`check_new_row` returned).  False when the kind has none;
        the repair policy then demotes the constraint to an SSC."""
        return False

    # -- selection (Section 3.2) ---------------------------------------------

    def workload_match(
        self, workload: "Workload", database: Optional["Database"]
    ) -> Tuple[float, float]:
        """(workload frequency of queries this SC can help, helpfulness
        in [0, 1])."""
        return 0.0, 0.0

    # -- what the rewrite rules consume ------------------------------------------

    def row_conjuncts(self) -> List["ast.Expression"]:
        """Unqualified conjuncts every conforming row satisfies, for
        UNION ALL branch elimination."""
        return []

    def row_condition(self) -> "ast.Expression":
        """The statement as one unqualified row predicate: the conforming
        branch of an exception-table union (Section 4.4)."""
        raise NotImplementedError

    def interval_columns(self) -> List[str]:
        """Columns of one table between which :meth:`implied_interval`
        carries intervals (introduction, twinning, AST routing)."""
        return []

    def implied_interval(
        self, target_column: str, known: Dict[str, Interval]
    ) -> Interval:
        """The interval the statement implies for ``target_column`` given
        ``known`` intervals on the other :meth:`interval_columns`."""
        return Interval.unbounded()

    def introduction_targets(
        self, known: Dict[str, Interval]
    ) -> List[Tuple[str, Optional[str]]]:
        """(target, source) columns predicate introduction may bound,
        given what the query already bounds; ``source`` names the column
        the range comes from when there is exactly one."""
        return [(c, None) for c in self.interval_columns() if c not in known]

    def difference_bounds(self) -> List["DifferenceBound"]:
        """``x - y <= c`` bounds the statement implies (twinning's
        selectivity hints for difference predicates)."""
        return []

    def column_bounds(self) -> Optional[Tuple[str, Interval]]:
        """(column, [min, max]) when the statement bounds one column's
        values, for min/max abbreviation.  A kind that returns bounds
        keeps them as live ``low``/``high`` attributes, which runtime
        parameters read at execution time (Section 4.2)."""
        return None

    def functional_dependency(self) -> Optional[Tuple[List[str], List[str]]]:
        """(determinants, dependents) for GROUP BY / ORDER BY pruning."""
        return None

    def join_path(self) -> Optional["JoinPathSpec"]:
        """The join path an inter-table kind characterizes."""
        return None

    def trim(
        self, a_range: Interval, b_range: Interval
    ) -> Tuple[Interval, Interval]:
        """The join path's (a, b) query rectangle with provably empty
        edge slabs shaved off (join holes)."""
        return a_range, b_range

    def forward_interval(self, b_interval: Interval) -> Interval:
        """The band on ``a`` implied when ``b`` lies in ``b_interval``."""
        return Interval.unbounded()

    def inverse_interval(self, a_interval: Interval) -> Interval:
        """The band on ``b`` implied when ``a`` lies in ``a_interval``."""
        return Interval.unbounded()

    def describe(self) -> str:
        if self.is_absolute:
            flavor = "ASC"
        else:
            # Enough precision that a 99.99% SSC never displays as 100%.
            pct = min(self.confidence * 100, 99.99)
            flavor = f"SSC({pct:.2f}%)"
        return f"[{flavor}/{self.state.value}] {self.name}: {self.statement_sql()}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} {self.state.value}>"

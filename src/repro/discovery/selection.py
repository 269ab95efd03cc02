"""The selection stage: rank discovered SC candidates by expected utility.

Paper Section 3.2: "The selection stage chooses the most promising of the
discovered SCs to keep ... based on the estimated utility of each for the
optimizer with respect to the optimizer's capabilities, the database's
statistics, and the workload.  ...  The expense of a SC's maintenance must
be weighed against its utility."

Scoring model
-------------
Each candidate gets ``benefit`` (workload frequency of queries the SC can
help, scaled by how much it helps: the kind's ``workload_match``) minus
``maintenance_cost`` (the kind's per-update cost times the table's update
weight).  Absolute candidates can
serve rewrite *and* estimation; statistical candidates only estimation, so
their benefit is discounted.  The engine returns scores sorted descending
and can apply a *probation* cut: keep the top N, activate those above an
activation threshold, and hold the rest in PROBATION (maintained but not
yet employed) as the paper suggests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.discovery.workload_model import Workload
from repro.softcon.base import SoftConstraint

ESTIMATION_ONLY_DISCOUNT = 0.4


class UtilityScore:
    """The scored utility of one candidate."""

    __slots__ = ("constraint", "benefit", "maintenance_cost", "matched_frequency")

    def __init__(
        self,
        constraint: SoftConstraint,
        benefit: float,
        maintenance_cost: float,
        matched_frequency: float,
    ) -> None:
        self.constraint = constraint
        self.benefit = benefit
        self.maintenance_cost = maintenance_cost
        self.matched_frequency = matched_frequency

    @property
    def net_utility(self) -> float:
        return self.benefit - self.maintenance_cost

    def __repr__(self) -> str:
        return (
            f"UtilityScore({self.constraint.name}: benefit={self.benefit:.2f}, "
            f"cost={self.maintenance_cost:.2f}, net={self.net_utility:.2f})"
        )


class SelectionEngine:
    """Scores and selects soft-constraint candidates against a workload.

    Parameters
    ----------
    update_weight:
        Relative volume of updates vs. queries; scales maintenance cost.
        Data-warehouse workloads (load nightly, query all day) use a small
        value; OLTP-ish workloads a larger one.
    """

    def __init__(self, update_weight: float = 0.1) -> None:
        self.update_weight = update_weight

    # -- scoring --------------------------------------------------------------

    def score(
        self,
        candidate: SoftConstraint,
        workload: Workload,
        database: Optional[Database] = None,
    ) -> UtilityScore:
        matched, helpfulness = candidate.workload_match(workload, database)
        benefit = matched * helpfulness
        if candidate.is_statistical:
            benefit *= ESTIMATION_ONLY_DISCOUNT
            maintenance = 0.0  # SSCs are not checked at update time
        else:
            maintenance = candidate.maintenance_cost * self.update_weight
        return UtilityScore(candidate, benefit, maintenance, matched)

    # -- selection -----------------------------------------------------------------

    def rank(
        self,
        candidates: Sequence[SoftConstraint],
        workload: Workload,
        database: Optional[Database] = None,
    ) -> List[UtilityScore]:
        """Score all candidates, best first."""
        scores = [self.score(c, workload, database) for c in candidates]
        scores.sort(key=lambda s: -s.net_utility)
        return scores

    def select(
        self,
        candidates: Sequence[SoftConstraint],
        workload: Workload,
        database: Optional[Database] = None,
        keep: int = 10,
        activation_threshold: float = 0.0,
    ) -> Tuple[List[SoftConstraint], List[SoftConstraint]]:
        """Pick the top candidates; returns (activate_now, probation).

        Candidates above ``activation_threshold`` net utility are slated
        for activation; the remainder of the top ``keep`` go to probation
        (maintained, assessed, not yet employed — Section 3.2).
        """
        ranked = self.rank(candidates, workload, database)
        activate: List[SoftConstraint] = []
        probation: List[SoftConstraint] = []
        for score in ranked[:keep]:
            if score.net_utility > activation_threshold:
                activate.append(score.constraint)
            elif score.net_utility > 0:
                probation.append(score.constraint)
        return activate, probation

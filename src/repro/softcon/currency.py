"""The currency (staleness) model for statistical soft constraints.

Paper, Section 3.3: *"Given a fact table of a million records and the
knowledge that only a thousand tuples are affected by updates daily, the
margin of error for an SSC as a row check constraint on that table will be
quite small over the course of several days.  But within a month's time,
the margin of error would be 3%."*

The model is deliberately simple and matches the paper's arithmetic: every
update (insert/update/delete) against the constrained table may flip one
row's adherence, so after ``u`` updates against a table of ``n`` rows the
SSC's stated confidence carries an additional margin of error of ``u/n``.
Experiment E9 reproduces the 1M-rows / 1000-updates-per-day / ~3%-per-month
projection with this model driven by the registry's real update counters.
"""

from __future__ import annotations

from typing import Tuple


def project_margin_of_error(
    row_count: int, updates_per_day: float, days: float
) -> float:
    """The paper's projection: margin after ``days`` of steady updates."""
    if row_count <= 0:
        return 1.0
    return min(1.0, (updates_per_day * days) / row_count)


class CurrencyModel:
    """Tracks an SC's margin of error from updates since verification.

    Attributes
    ----------
    row_count:
        Size of the constrained table at the last verification.
    updates_seen:
        Updates against the table since then (fed by the registry).
        Zeroed by :meth:`reset`; the lifetime total survives as
        :attr:`total_updates`.
    """

    def __init__(self, row_count: int) -> None:
        self.row_count = max(0, row_count)
        self.updates_seen = 0
        self._total_updates = 0

    def record_update(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError(
                f"update count must be non-negative, got {count}"
            )
        self.updates_seen += count
        self._total_updates += count

    @property
    def total_updates(self) -> int:
        """Lifetime updates observed, across re-verifications.

        ``updates_seen`` answers "how stale since the last verify?";
        this answers "how churned is the table overall?"
        """
        return self._total_updates

    def reset(self, row_count: int) -> None:
        """Called after re-verification: fresh baseline, zero staleness.

        Only the since-verification counter is zeroed; ``row_count`` must
        reflect the table's current (non-negative) size and is clamped.
        """
        self.row_count = max(0, row_count)
        self.updates_seen = 0

    @property
    def margin_of_error(self) -> float:
        """Upper bound on the drift of the SC's confidence."""
        if self.row_count <= 0:
            return 1.0 if self.updates_seen else 0.0
        return min(1.0, self.updates_seen / self.row_count)

    def confidence_bounds(self, stated_confidence: float) -> Tuple[float, float]:
        """The interval the true confidence may occupy right now."""
        margin = self.margin_of_error
        return (
            max(0.0, stated_confidence - margin),
            min(1.0, stated_confidence + margin),
        )

    def __repr__(self) -> str:
        return (
            f"CurrencyModel(rows={self.row_count}, updates={self.updates_seen}, "
            f"margin={self.margin_of_error:.4f})"
        )

"""Tests for SSC twinned predicates (E5 mechanics, paper Section 5.1)."""

import pytest

from repro.optimizer.planner import Optimizer, OptimizerConfig
from repro.softcon.checksc import CheckSoftConstraint
from repro.stats.errors import q_error
from repro.workload.schemas import build_project_table

QUERY = (
    "SELECT id FROM project WHERE start_date <= 11500 AND end_date >= 11500"
)
COUNT_QUERY = (
    "SELECT count(*) AS n FROM project "
    "WHERE start_date <= 11500 AND end_date >= 11500"
)


@pytest.fixture(scope="module")
def project_db():
    db = build_project_table(rows=6000, long_fraction=0.1, seed=21)
    ssc = CheckSoftConstraint(
        "short_projects", "project", "end_date <= start_date + 30",
        confidence=0.9,
    )
    db.add_soft_constraint(ssc, verify_first=True)
    return db


class TestTwinnedPredicates:
    def test_twins_attached_as_estimation_only(self, project_db):
        plan = project_db.plan(QUERY)
        assert plan.estimation_notes
        assert any("start_date" in note for note in plan.estimation_notes)

    def test_twins_never_filter_rows(self, project_db):
        from repro.harness.runner import compare_optimizers

        enabled, disabled = compare_optimizers(project_db, QUERY)
        assert enabled.row_count == disabled.row_count

    def test_estimate_beats_independence(self, project_db):
        actual = project_db.query(COUNT_QUERY)[0]["n"]
        with_ssc = project_db.plan(QUERY).estimated_rows
        no_twin = Optimizer(
            project_db.database,
            project_db.registry,
            OptimizerConfig(disabled_rules={"twinning"}),
        ).optimize(QUERY).estimated_rows
        assert q_error(with_ssc, actual) < q_error(no_twin, actual)
        assert q_error(with_ssc, actual) < 3.0

    def test_independence_overestimates(self, project_db):
        actual = project_db.query(COUNT_QUERY)[0]["n"]
        no_twin = Optimizer(
            project_db.database,
            project_db.registry,
            OptimizerConfig(disabled_rules={"twinning"}),
        ).optimize(QUERY).estimated_rows
        assert no_twin > actual * 2  # independence is badly off (too high)

    def test_confidence_shown_in_notes(self, project_db):
        plan = project_db.plan(QUERY)
        assert any("%" in note for note in plan.estimation_notes)

    def test_twin_not_duplicated(self, project_db):
        plan = project_db.plan(QUERY)
        expressions = [
            note.split("[")[0] for note in plan.estimation_notes
        ]
        assert len(expressions) == len(set(expressions))


class TestStalenessIntegration:
    def test_effective_confidence_degrades_with_updates(self, project_db):
        registry = project_db.registry
        ssc = registry.get("short_projects")
        stated = ssc.confidence
        before = registry.effective_confidence(ssc)
        for n in range(600):  # 10% of the table updated
            project_db.database.insert(
                "project", [100000 + n, 11000, 11005]
            )
        after = registry.effective_confidence(ssc)
        assert after < before
        assert after == pytest.approx(stated - 0.1, abs=0.02)

    def test_stale_twin_carries_lower_confidence(self, project_db):
        plan = project_db.plan(QUERY)
        # After the updates above, the note shows the degraded confidence.
        note = next(n for n in plan.estimation_notes if "start_date" in n)
        shown = float(note.split("(")[1].split("%")[0])
        assert shown < 90.0
